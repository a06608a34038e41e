import math

import numpy as np
import pytest
from bounds import U, WindowSums, gamma, joint_gap_bound, lag_gap_bounds, pairwise_depth
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import tsindep.hsic as hsic_module
from tsindep import (
    DataError,
    KernelSpec,
    LagConfig,
    PairedResiduals,
    gram_matrix,
    hsic_v,
    hsic_v_reference,
    joint_stat,
    scaled_stat,
    single_stat,
    stat_from_grams,
)

GAUSS = KernelSpec.gaussian(1.0)


def random_grams(rng, n, spec=GAUSS):
    k = gram_matrix(spec, rng.normal(size=(n, 2))).values
    l = gram_matrix(spec, rng.normal(size=(n, 3))).values
    return k, l


class TestHsicV:
    def test_all_ones_is_zero(self):
        ones = np.ones((6, 6))
        assert_allclose(hsic_v(ones, ones), 0.0, atol=1e-15)
        assert_allclose(hsic_v_reference(ones, ones), 0.0, atol=1e-15)

    @pytest.mark.parametrize(
        "spec", [GAUSS, KernelSpec.laplace(1.0), KernelSpec.inverse_multiquadric(1.0, 1.0)]
    )
    @pytest.mark.parametrize("n", [7, 40, 150, 500])
    def test_constant_gram_is_exactly_zero(self, spec, n):
        # The centred constant kernel is the zero matrix, so no roundoff
        # from the cancelling terms may survive, on either side.
        rng = np.random.default_rng(n)
        k = gram_matrix(spec, rng.normal(size=(n, 2))).values
        const = np.full((n, n), 0.7)
        assert hsic_v(k, const) == 0.0
        assert hsic_v(const, k) == 0.0

    @pytest.mark.parametrize("a,b", [(0.3, 0.7), (0.0, 1.0), (0.9, 0.1), (0.5, 0.5)])
    def test_two_point_closed_form(self, a, b):
        # Hand expansion of the three sums gives (1 - a)(1 - b) / 4.
        k = np.array([[1.0, a], [a, 1.0]])
        l = np.array([[1.0, b], [b, 1.0]])
        expected = (1.0 - a) * (1.0 - b) / 4.0
        assert_allclose(hsic_v(k, l), expected, rtol=1e-12, atol=1e-15)
        assert_allclose(hsic_v_reference(k, l), expected, rtol=1e-12, atol=1e-15)

    def test_matches_reference_on_random_instances(self):
        # Oracle equivalence across 100 random instances, N in 2..30.
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(2, 31))
            spec = KernelSpec.gaussian(float(rng.uniform(0.5, 2.0)))
            k, l = random_grams(rng, n, spec)
            fast = hsic_v(k, l)
            ref = hsic_v_reference(k, l)
            assert abs(fast - ref) <= 1e-10 * max(abs(ref), 1e-12)

    def test_nonnegative_for_psd_kernels(self):
        rng = np.random.default_rng(1)
        for spec in (GAUSS, KernelSpec.laplace(1.0), KernelSpec.inverse_multiquadric(1.0, 1.0)):
            for _ in range(20):
                n = int(rng.integers(2, 40))
                k = gram_matrix(spec, rng.normal(size=(n, 2))).values
                l = gram_matrix(spec, rng.normal(size=(n, 2))).values
                assert hsic_v(k, l) >= -1e-12 * n * n

    def test_size_mismatch(self):
        with pytest.raises(DataError):
            hsic_v(np.ones((3, 3)), np.ones((4, 4)))
        with pytest.raises(DataError):
            hsic_v(np.ones((1, 1)), np.ones((1, 1)))

    def test_reference_size_cap(self):
        with pytest.raises(DataError):
            hsic_v_reference(np.ones((51, 51)), np.ones((51, 51)))

    def test_asymmetric_gram_rejected(self):
        # The sums read one triangle, so asymmetric input would give a
        # silently wrong value.
        k, l = random_grams(np.random.default_rng(20), 9)
        bad = k.copy()
        bad[2, 5] = np.nextafter(bad[2, 5], 2.0)
        for args in ((bad, l), (l, bad), (np.stack([k, bad]), np.stack([l, l]))):
            with pytest.raises(DataError, match="symmetric"):
                hsic_v(*args)


class TestSingleStat:
    def test_lag_zero_directions_identical_bitwise(self):
        rng = np.random.default_rng(3)
        res = PairedResiduals(rng.normal(size=(40, 2)), rng.normal(size=(40, 2)))
        s1 = single_stat(res, 0, 1, GAUSS, GAUSS)
        s2 = single_stat(res, 0, 2, GAUSS, GAUSS)
        assert s1 == s2

    def test_constant_side_gives_zero(self):
        rng = np.random.default_rng(4)
        res = PairedResiduals(rng.normal(size=(20, 2)), np.ones((20, 2)))
        assert_allclose(single_stat(res, 0, 1, GAUSS, GAUSS), 0.0, atol=1e-14)

    def test_perfect_dependence_positive_and_matches_reference(self):
        rng = np.random.default_rng(5)
        eta = rng.normal(size=(20, 2))
        res = PairedResiduals(eta, eta.copy())
        value = single_stat(res, 0, 1, GAUSS, GAUSS)
        assert value > 0.0
        k = gram_matrix(GAUSS, eta).values
        assert_allclose(value, hsic_v_reference(k, k), rtol=1e-10)

    def test_lag_alignment_drops_rows(self):
        rng = np.random.default_rng(6)
        e1 = rng.normal(size=(30, 1))
        e2 = rng.normal(size=(30, 1))
        res = PairedResiduals(e1, e2)
        m = 4
        direct = single_stat(res, m, 1, GAUSS, GAUSS)
        k = gram_matrix(GAUSS, e1[:26]).values
        l = gram_matrix(GAUSS, e2[4:]).values
        # The pass takes the window sums from the whole Grams' rows, so at
        # m > 0 it agrees with hsic_v on the windows up to their rounding.
        g1, g2 = gram_matrix(GAUSS, e1).values, gram_matrix(GAUSS, e2).values
        assert abs(direct - hsic_v(k, l)) <= lag_gap_bounds(g1, g2, 1, [m])[0]

    def test_direction_two_alignment(self):
        rng = np.random.default_rng(7)
        e1 = rng.normal(size=(30, 1))
        e2 = rng.normal(size=(30, 1))
        res = PairedResiduals(e1, e2)
        k = gram_matrix(GAUSS, e1[4:]).values
        l = gram_matrix(GAUSS, e2[:26]).values
        # Series 2 leads: its Gram gives the lead window, series 1's the
        # trailing one, each summed from its whole Gram's rows.
        g1, g2 = gram_matrix(GAUSS, e1).values, gram_matrix(GAUSS, e2).values
        bound = lag_gap_bounds(g1, g2, 2, [4])[0]
        assert abs(single_stat(res, 4, 2, GAUSS, GAUSS) - hsic_v(l, k)) <= bound

    def test_infeasible_lag(self):
        res = PairedResiduals(np.zeros((5, 1)), np.zeros((5, 1)))
        with pytest.raises(DataError):
            single_stat(res, 4, 1, GAUSS, GAUSS)

    def test_paired_permutation_invariance(self):
        rng = np.random.default_rng(8)
        e1 = rng.normal(size=(25, 2))
        e2 = rng.normal(size=(25, 2))
        base = single_stat(PairedResiduals(e1, e2), 0, 1, GAUSS, GAUSS)
        for _ in range(5):
            perm = rng.permutation(25)
            shuffled = single_stat(PairedResiduals(e1[perm], e2[perm]), 0, 1, GAUSS, GAUSS)
            assert abs(shuffled - base) <= 1e-12 * abs(base)


class TestJointStat:
    def test_joint_zero_equals_single(self):
        rng = np.random.default_rng(9)
        res = PairedResiduals(rng.normal(size=(25, 2)), rng.normal(size=(25, 2)))
        assert joint_stat(res, 0, 1, GAUSS, GAUSS) == single_stat(res, 0, 1, GAUSS, GAUSS)

    def test_joint_is_sum_of_singles(self):
        rng = np.random.default_rng(10)
        res = PairedResiduals(rng.normal(size=(30, 2)), rng.normal(size=(30, 2)))
        parts = [single_stat(res, m, 1, GAUSS, GAUSS) for m in range(3)]
        assert_allclose(joint_stat(res, 2, 1, GAUSS, GAUSS), sum(parts), rtol=1e-12)

    def test_infeasible_max_lag(self):
        res = PairedResiduals(np.zeros((5, 1)), np.zeros((5, 1)))
        with pytest.raises(DataError):
            joint_stat(res, 4, 1, GAUSS, GAUSS)


class TestScaledStat:
    def test_values(self):
        assert scaled_stat(0.0, 100) == 0.0
        assert_allclose(scaled_stat(0.01, 100), 1.0)
        with pytest.raises(DataError):
            scaled_stat(0.1, 1)

    def test_scaled_single_stat_bounded_in_n(self):
        # Empirical proxy for the 1/n rate: the 95th percentile of the
        # scaled lag-0 statistic moves by less than 1.5x from n=100 to 200.
        rng = np.random.default_rng(11)
        quantiles = {}
        for n in (100, 200):
            vals = []
            for _ in range(200):
                res = PairedResiduals(rng.normal(size=(n, 2)), rng.normal(size=(n, 2)))
                vals.append(n * single_stat(res, 0, 1, GAUSS, GAUSS))
            quantiles[n] = np.quantile(vals, 0.95)
        ratio = quantiles[200] / quantiles[100]
        assert 1.0 / 1.5 < ratio < 1.5


class TestGramSlicing:
    def test_stat_from_grams_matches_single_stat(self):
        rng = np.random.default_rng(12)
        for n in (35, 300):
            e1 = rng.normal(size=(n, 2))
            e2 = rng.normal(size=(n, 2))
            res = PairedResiduals(e1, e2)
            g1 = gram_matrix(GAUSS, e1).values
            g2 = gram_matrix(GAUSS, e2).values
            for m in (0, 1, 5):
                for direction in (1, 2):
                    cfg = LagConfig(direction=direction, m=m)
                    assert stat_from_grams(g1, g2, cfg) == single_stat(
                        res, m, direction, GAUSS, GAUSS
                    )
            cfg = LagConfig(direction=1, max_lag=3)
            assert_allclose(
                stat_from_grams(g1, g2, cfg), joint_stat(res, 3, 1, GAUSS, GAUSS), rtol=1e-12
            )

    def test_shared_singles_match_separate_calls(self, monkeypatch):
        # The configs of `tsindep test --lag 0 --lag 3 --max-lag 5`.
        cfgs = [
            LagConfig(direction=1, m=0),
            LagConfig(direction=1, m=3),
            LagConfig(direction=2, m=3),
            LagConfig(direction=1, max_lag=5),
            LagConfig(direction=2, max_lag=5),
        ]
        g1, g2 = random_grams(np.random.default_rng(14), 120)
        separate = [stat_from_grams(g1, g2, cfg) for cfg in cfgs]
        passes = []
        real = hsic_module._lag_terms

        def counting(g1, g2, lags, **kwargs):
            passes.append(dict(lags))
            return real(g1, g2, lags, **kwargs)

        monkeypatch.setattr(hsic_module, "_lag_terms", counting)
        shared = stat_from_grams(g1, g2, cfgs)
        assert shared.shape == (5,)
        assert shared.tolist() == separate
        # Lags 0..5 of direction 1 and 1..5 of direction 2, once each, in
        # one pass.
        want = [{1: list(range(6)), 2: list(range(1, 6))}]
        assert passes == want
        # S2(0) is served by the single S1(0) needs, with no new lag.
        passes.clear()
        with_s20 = stat_from_grams(g1, g2, cfgs + [LagConfig(direction=2, m=0)])
        assert passes == want
        assert with_s20.tolist() == separate + [separate[0]]

    def test_lagscan_configs_take_one_pass(self, monkeypatch):
        # The configs of `tsindep lagscan --max-lag 10`, on one matrix
        # pair and on a stack.
        cfgs = [LagConfig(direction=d, m=m) for d in (1, 2) for m in range(11)]
        g1, g2 = random_grams(np.random.default_rng(20), 60)
        separate = [stat_from_grams(g1, g2, cfg) for cfg in cfgs]
        passes = []
        real = hsic_module._lag_terms

        def counting(g1, g2, lags, **kwargs):
            passes.append((g1.ndim, dict(lags)))
            return real(g1, g2, lags, **kwargs)

        monkeypatch.setattr(hsic_module, "_lag_terms", counting)
        assert stat_from_grams(g1, g2, cfgs).tolist() == separate
        stack1, stack2 = np.stack([g1, g2]), np.stack([g2, g1])
        stacked = stat_from_grams(stack1, stack2, cfgs)
        assert stacked.shape == (2, 22)
        assert stacked[0].tolist() == separate
        lags = {1: list(range(11)), 2: list(range(1, 11))}
        assert passes == [(2, lags), (3, lags)]


FAMILIES = [
    GAUSS,
    KernelSpec.laplace(1.0),
    KernelSpec.inverse_multiquadric(1.0, 1.0),
    KernelSpec("fbm", hurst=0.5),
]


def offset_copy(a, nbytes):
    """Copy of ``a`` whose data start ``nbytes`` into a fresh byte buffer."""
    buf = np.zeros(a.size * a.itemsize + 64, dtype=np.uint8)
    out = np.frombuffer(buf.data, dtype=float, count=a.size, offset=nbytes).reshape(a.shape)
    out[...] = a
    return out


def lag_windows(g1, g2, m, direction):
    """The windows of g1 and g2 that the single statistic at lag m pairs."""
    big = g1.shape[-1] - m
    if direction == 1:
        return g1[:big, :big], g2[m:, m:]
    return g1[m:, m:], g2[:big, :big]


def split_cross_dots(k, l):
    """hsic_v's cross term one row at a time: 2 x upper part + diagonal block."""
    block = hsic_module._CROSS_BLOCK
    n = k.shape[-1]
    out = np.empty(n)
    for i in range(n):
        b0 = i - i % block
        b1 = min(b0 + block, n)
        out[i] = hsic_module._row_dots(k[i : i + 1, b0:b1], l[i : i + 1, b0:b1])[0]
        if b1 < n:
            out[i] += 2.0 * hsic_module._row_dots(k[i : i + 1, b1:], l[i : i + 1, b1:])[0]
    return out


def exact_window_sums(rows, m, role, picks):
    """math.fsum of rows ``picks`` of a window of the Gram whose rows (as
    lists) are ``rows``: its column sums, by symmetry, each rounded once."""
    n = len(rows)
    if role == "lead":
        return np.array([math.fsum(rows[i][: n - m]) for i in picks])
    return np.array([math.fsum(rows[m + i][m:]) for i in picks])


class TestMultiLagPass:
    """The one-pass terms of every lag against hsic_v on each lag's windows."""

    @staticmethod
    def check_pass(g1, g2, lags):
        sums, rows = (WindowSums(g1), WindowSums(g2)), (g1.tolist(), g2.tolist())
        # fsum costs O(N) per row: above 200 rows, every step-th row and the
        # last one of each window.
        step = max(1, len(rows[0]) // 100)
        for direction in (1, 2):
            terms = hsic_module._lag_terms(g1, g2, {direction: lags})
            assert sorted(terms) == sorted((direction, m) for m in lags)
            values = hsic_module._lag_stats(g1, g2, {direction: lags}, terms)
            gaps = lag_gap_bounds(g1, g2, direction, lags)
            # g1 leads in direction 1 and g2 in direction 2.
            roles = ("lead", "trail") if direction == 1 else ("trail", "lead")
            for j, m in enumerate(lags):
                k, l = lag_windows(g1, g2, m, direction)
                c_k, c_l, dots = terms[direction, m]
                assert np.array_equal(dots, split_cross_dots(k, l))
                # The window sums against their exact values; fsum rounds
                # those once more, by u of their size.
                picks = sorted({*range(0, len(dots), step), len(dots) - 1})
                for i, c in enumerate((c_k, c_l)):
                    exact = exact_window_sums(rows[i], m, roles[i], picks)
                    bound = sums[i].pass_bound(m, roles[i])[1][picks] + U * np.abs(exact)
                    assert (np.abs(c[picks] - exact) <= bound).all()
                want = hsic_module.single_from_grams(g1, g2, m, direction)
                assert values[j] == want
                if m == 0:
                    # Both directions take the row sums of g1 and g2 alone.
                    assert want == hsic_v(g1, g2)
                else:
                    lead, trail = (k, l) if direction == 1 else (l, k)
                    assert abs(want - hsic_v(lead, trail)) <= gaps[j]

    @pytest.mark.parametrize("tile_bytes", [None, 5000], ids=["default_tile", "small_tile"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [2, 3, 7, 9, 35, 130, 301, 700])
    @pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: s.family)
    def test_matches_single_from_grams(self, monkeypatch, spec, n, d, tile_bytes):
        # 512 KB tiles hold 93 rows at n = 700 and 217 at n = 301, and the
        # whole Gram below that; 5000-byte tiles cut even n = 9 into two.
        if tile_bytes is not None:
            monkeypatch.setattr(hsic_module, "_TILE_BYTES", tile_bytes)
        rng = np.random.default_rng([n, d])
        g1 = gram_matrix(spec, rng.normal(size=(n, d))).values
        g2 = gram_matrix(spec, rng.normal(size=(n, d))).values
        self.check_pass(g1, g2, list(range(min(n - 2, 7) + 1)))

    @pytest.mark.parametrize("lags", [[3], [1, 4, 6], [7, 0]])
    def test_subsets_of_lags(self, lags):
        # A lag's value does not depend on the other lags of its pass.
        g1, g2 = random_grams(np.random.default_rng(15), 301)
        self.check_pass(g1, g2, sorted(lags))
        for direction in (1, 2):
            every = {direction: list(range(8))}
            full = hsic_module._lag_stats(g1, g2, every, hsic_module._lag_terms(g1, g2, every))
            part = {direction: sorted(lags)}
            some = hsic_module._lag_stats(g1, g2, part, hsic_module._lag_terms(g1, g2, part))
            assert some.tolist() == [full[m] for m in sorted(lags)]

    def test_joint_is_the_sum_of_its_singles(self):
        g1, g2 = random_grams(np.random.default_rng(16), 130)
        for direction in (1, 2):
            joint = stat_from_grams(g1, g2, LagConfig(direction, max_lag=7))
            singles = stat_from_grams(g1, g2, [LagConfig(direction, m=m) for m in range(8)])
            parts = [
                hsic_module.single_from_grams(g1, g2, m, direction) for m in range(8)
            ]
            assert singles.tolist() == parts
            assert joint == float(sum(parts))

    @pytest.mark.parametrize("n", [9, 301])
    def test_constant_gram_is_exactly_zero(self, n):
        k = random_grams(np.random.default_rng(n), n)[0]
        const = np.full((n, n), 0.7)
        for g1, g2 in ((k, const), (const, k)):
            for direction in (1, 2):
                assert stat_from_grams(g1, g2, LagConfig(direction, max_lag=7)) == 0.0
                singles = stat_from_grams(g1, g2, [LagConfig(direction, m=m) for m in range(8)])
                assert set(singles.tolist()) == {0.0}

    def test_transposed_grams_give_the_same_bits(self):
        # Column-major input is copied to row-major, so every row is summed
        # pairwise along a unit-stride axis, as hsic_v sums it.
        g1, g2 = random_grams(np.random.default_rng(17), 130)
        for cfg in (LagConfig(1, max_lag=5), LagConfig(2, max_lag=5), LagConfig(2, m=3)):
            assert stat_from_grams(g1.T, g2.T, cfg) == stat_from_grams(g1, g2, cfg)

    def test_kept_pass_serves_its_own_arrays_only(self):
        g1, g2 = random_grams(np.random.default_rng(21), 30)
        cfgs = [LagConfig(1, max_lag=3), LagConfig(2, m=2)]
        kept = hsic_module._pass_calls(g1, g2, cfgs)
        assert stat_from_grams(g1, g2, cfgs, calls=kept).tolist() == stat_from_grams(g1, g2, cfgs).tolist()
        # Refilled in place, the same arrays give the new pair's values.
        h1, h2 = random_grams(np.random.default_rng(22), 30)
        g1[...], g2[...] = h1, h2
        assert stat_from_grams(g1, g2, cfgs, calls=kept).tolist() == stat_from_grams(h1, h2, cfgs).tolist()
        # Another view of the same buffer, other buffers or other lags.
        for args in ((g1[:], g2, cfgs), (g1, g2.copy(), cfgs), (g1, g2, cfgs[:1])):
            with pytest.raises(ValueError, match="other Gram arrays or lags"):
                stat_from_grams(*args, calls=kept)

    def test_size_mismatch(self):
        g1, _ = random_grams(np.random.default_rng(18), 12)
        with pytest.raises(DataError):
            stat_from_grams(g1, np.ones((10, 10)), LagConfig(1, max_lag=2))

    def test_hsic_v_same_bits_for_view_copy_and_offset_buffer(self):
        g1, g2 = random_grams(np.random.default_rng(19), 301)
        k, l = g1[:290, :290], g2[11:, 11:]
        value = hsic_v(k, l)
        assert hsic_v(np.ascontiguousarray(k), np.ascontiguousarray(l)) == value
        assert hsic_v(k.T, l.T) == value
        for nbytes in (8, 24, 1):
            assert hsic_v(offset_copy(k, nbytes), offset_copy(l, nbytes)) == value


def centred_oracle(k, l):
    """HSIC as sum((HKH) * L) / N^2 in long double, with the term scale.

    Independent of hsic_v's sums and their order.  The scale is the
    largest of hsic_v's three terms on |K| and |L|, which bounds what
    rounding in any order of the O(N^2) sums can reach.
    """
    n = k.shape[0]
    k, l = k.astype(np.longdouble), l.astype(np.longdouble)
    kc = k - k.mean(axis=0) - k.mean(axis=1)[:, None] + k.mean()
    ak, al = np.abs(k), np.abs(l)
    terms = (
        (ak * al).sum() / n**2,
        ak.sum() * al.sum() / n**4,
        2 * ak.sum(axis=0) @ al.sum(axis=0) / n**3,
    )
    return float((kc * l).sum() / n**2), float(max(terms))


class TestAboveTheBlockSize:
    """hsic_v and the multi-lag pass against a centred long-double oracle."""

    EPS = np.finfo(float).eps

    @pytest.mark.parametrize("n", [127, 128, 129, 255, 256, 257, 700])
    @pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: s.family)
    def test_matches_centred_oracle(self, spec, n):
        rng = np.random.default_rng([n, 50])
        g1 = gram_matrix(spec, rng.normal(size=(n, 2))).values
        g2 = gram_matrix(spec, rng.normal(size=(n, 3))).values
        value, scale = centred_oracle(g1, g2)
        # N * eps * scale bounds the rounding of sums of N terms.
        assert abs(hsic_v(g1, g2) - value) <= n * self.EPS * scale
        for direction in (1, 2):
            joint = stat_from_grams(g1, g2, LagConfig(direction, max_lag=10))
            singles = stat_from_grams(g1, g2, [LagConfig(direction, m=m) for m in range(11)])
            oracle = [centred_oracle(*lag_windows(g1, g2, m, direction)) for m in range(11)]
            for m, (value, scale) in enumerate(oracle):
                assert abs(singles[m] - value) <= n * self.EPS * scale
            values, scales = zip(*oracle)
            assert abs(joint - sum(values)) <= n * self.EPS * sum(scales)


class TestStackedPass:
    """A (nb, n, n) stack of Grams against the same pairs one at a time."""

    CONFIGS = [
        LagConfig(direction=1, m=0),
        LagConfig(direction=2, m=0),
        LagConfig(direction=1, m=1),
        LagConfig(direction=2, m=3),
    ]

    @staticmethod
    def stacks(spec, nb, n, seed):
        rng = np.random.default_rng([seed, nb, n])
        pts1, pts2 = rng.normal(size=(nb, n, 2)), rng.normal(size=(nb, n, 3))
        return gram_matrix(spec, pts1).values, gram_matrix(spec, pts2).values

    def check_items(self, g1, g2, cfgs):
        nb, k = g1.shape[0], len(cfgs)
        # Every single the joints sum is also read through a config of its own.
        cfgs = cfgs + [
            LagConfig(c.direction, m=m) for c in cfgs if c.is_joint for m in range(c.lag + 1)
        ]
        stacked = stat_from_grams(g1, g2, cfgs)
        assert stacked.shape == (nb, len(cfgs))
        one_by_one = [stat_from_grams(g1, g2, cfg) for cfg in cfgs[:k]]
        assert all(values.shape == (nb,) for values in one_by_one)
        for i in range(nb):
            alone = stat_from_grams(g1[i], g2[i], cfgs).tolist()
            assert stacked[i].tolist() == alone
            assert [values[i] for values in one_by_one] == alone[:k]
            assert [stat_from_grams(g1[i], g2[i], cfg) for cfg in cfgs[:k]] == alone[:k]

    @pytest.mark.parametrize("tile_bytes", [None, 5000], ids=["default_tile", "small_tile"])
    @pytest.mark.parametrize("nb", [1, 2, 5])
    @pytest.mark.parametrize("n", [2, 9, 35, 130])
    @pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: s.family)
    def test_items_equal_stack_of_one(self, monkeypatch, spec, n, nb, tile_bytes):
        # 5000-byte tiles split even a stack of n = 9 Grams into several
        # tiles; the default tile splits a stack of five 130 x 130 Grams
        # after row 100.
        if tile_bytes is not None:
            monkeypatch.setattr(hsic_module, "_TILE_BYTES", tile_bytes)
        g1, g2 = self.stacks(spec, nb, n, 40)
        joints = [LagConfig(direction, max_lag=n - 2) for direction in (1, 2)]
        self.check_items(g1, g2, joints + [c for c in self.CONFIGS if c.m <= n - 2])

    def test_lag_terms_carry_the_stack_axis(self):
        g1, g2 = self.stacks(GAUSS, 3, 40, 41)
        lags = {1: list(range(39)), 2: list(range(1, 39))}
        terms = hsic_module._lag_terms(g1, g2, lags)
        for i in range(3):
            alone = hsic_module._lag_terms(g1[i], g2[i], lags)
            for key in alone:
                for part, want in zip(terms[key], alone[key]):
                    assert np.array_equal(part[i], want)

    def test_hsic_v_on_stacks(self):
        g1, g2 = self.stacks(KernelSpec.laplace(1.0), 3, 30, 42)
        values = hsic_v(g1, g2)
        assert [values[i] for i in range(3)] == [hsic_v(g1[i], g2[i]) for i in range(3)]
        assert isinstance(hsic_v(g1[0], g2[0]), float)

    def test_constant_item_reads_zero_alone(self):
        g1, g2 = self.stacks(GAUSS, 5, 30, 43)
        g2[2] = 0.7
        cfgs = [LagConfig(1, max_lag=6), LagConfig(2, max_lag=6), LagConfig(2, m=4)]
        self.check_items(g1, g2, cfgs)
        for cfg in cfgs:
            values = stat_from_grams(g1, g2, cfg)
            assert values[2] == 0.0
            assert (np.delete(values, 2) > 0.0).all()

    def test_infeasible_lag_and_mismatch_rejected(self):
        g1, g2 = self.stacks(GAUSS, 2, 6, 44)
        with pytest.raises(DataError):
            stat_from_grams(g1, g2, LagConfig(1, max_lag=5))
        with pytest.raises(DataError):
            stat_from_grams(g1, g2[:1], LagConfig(1, max_lag=2))
        with pytest.raises(DataError):
            stat_from_grams(g1, g2[0], LagConfig(1, m=1))


def lag_sets(n, joints=True):
    """The configs the oracle checks below, with lags past n - 2 left out.

    ``var_test``'s five (``test --lag 0 --lag 3 --max-lag 5 --direction
    both``), the 22 singles of ``lagscan --max-lag 10``, and, with
    ``joints``, J1(n - 2) with J2(n - 2).
    """
    top = n - 2
    var_test = [
        LagConfig(1, m=0), LagConfig(1, m=min(3, top)), LagConfig(2, m=min(3, top)),
        LagConfig(1, max_lag=min(5, top)), LagConfig(2, max_lag=min(5, top)),
    ]
    lagscan = [LagConfig(d, m=m) for d in (1, 2) for m in range(min(10, top) + 1)]
    return var_test + lagscan + [LagConfig(d, max_lag=top) for d in (1, 2) if joints]


def per_lag_oracle(g1, g2, cfgs):
    """The per-lag route, hsic_v on each lag's lead and trailing window, and
    the bound on each config's gap from the pass.

    Lag 0 is hsic_v(g1, g2) in both directions, with a bound of 0, and
    joints add their singles in ascending m (see joint_gap_bound).
    """
    keys = {(c.direction, m) for c in cfgs for m in (range(c.lag + 1) if c.is_joint else (c.m,))}
    singles, gaps = {}, {}
    for direction in (1, 2):
        lags = sorted(m for d, m in keys if d == direction)
        gaps.update(zip([(direction, m) for m in lags], lag_gap_bounds(g1, g2, direction, lags)))
        for m in lags:
            lead, trail = lag_windows(g1, g2, m, direction)[:: 1 if direction == 1 else -1]
            singles[direction, m] = hsic_v(lead, trail) if m else hsic_v(g1, g2)
    values, bounds = [], []
    for c in cfgs:
        ks = [(c.direction, m) for m in range(c.lag + 1)] if c.is_joint else [(c.direction, c.m)]
        parts = [singles[key] for key in ks]
        values.append(sum(parts) if c.is_joint else parts[0])
        bound = joint_gap_bound(parts, [gaps[key] for key in ks])
        bounds.append(bound if c.is_joint else gaps[ks[0]])
    return values, bounds


def assert_within(values, oracle):
    """Each value within its bound of the per-lag route (== where it is 0)."""
    want, bounds = oracle
    assert len(values) == len(want)
    for value, w, bound in zip(values, want, bounds):
        assert abs(value - w) <= bound


class TestPassAgainstPerLagOracle:
    """stat_from_grams on every lag set against hsic_v on each lag's windows,
    within the bound of their window sums' rounding, and each stack item
    against its pair alone, bit for bit."""

    _oracles = {}

    @staticmethod
    def item(spec, n, i):
        """Item i of every stack of (spec, n): the same pair whatever the depth."""
        rng = np.random.default_rng([n, i, FAMILIES.index(spec)])
        return (
            gram_matrix(spec, rng.normal(size=(n, 2))).values,
            gram_matrix(spec, rng.normal(size=(n, 3))).values,
        )

    def oracle(self, spec, n, i, joints):
        """``(per-lag route, its bounds, the pass on the pair alone)``."""
        key = (spec.family, n, i, joints)
        if key not in self._oracles:
            pair, cfgs = self.item(spec, n, i), lag_sets(n, joints)
            alone = stat_from_grams(*pair, cfgs).tolist()
            self._oracles[key] = (*per_lag_oracle(*pair, cfgs), alone)
        return self._oracles[key]

    @pytest.mark.parametrize("tile_bytes", [None, 5000], ids=["default_tile", "small_tile"])
    @pytest.mark.parametrize("nb", [None, 1, 2, 6], ids=["no_stack", "1", "2", "6"])
    @pytest.mark.parametrize("n", [2, 3, 9, 35, 130, 257, 301, 499, 700])
    @pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: s.family)
    def test_equals_per_lag_oracle(self, monkeypatch, spec, n, nb, tile_bytes):
        if tile_bytes is not None:
            monkeypatch.setattr(hsic_module, "_TILE_BYTES", tile_bytes)
        # J(n - 2) costs the oracle n - 1 hsic_v calls per direction and
        # item, and 5000-byte tiles give the pass (n / 2) x n calls or more.
        # So above n = 130 the joints run on item 0 alone (no stack or a
        # stack of one), and from n = 499 on, where 512 KiB tiles already
        # cut a Gram into several tiles, with those tiles and one family.
        joints = n <= 130 or nb in (None, 1) and (
            n <= 301 or tile_bytes is None and spec is GAUSS
        )
        cfgs = lag_sets(n, joints)
        if nb is None:
            values = stat_from_grams(*self.item(spec, n, 0), cfgs)
            want, bounds, _ = self.oracle(spec, n, 0, joints)
            assert_within(values.tolist(), (want, bounds))
            # J1(5) adds the singles S1(0..5) that lagscan's configs read.
            top = min(5, n - 2)
            assert values[3] == sum(values[5 : 5 + top + 1].tolist())
            return
        pairs = [self.item(spec, n, i) for i in range(nb)]
        g1, g2 = (np.stack(side) for side in zip(*pairs))
        values = stat_from_grams(g1, g2, cfgs)
        assert values.shape == (nb, len(cfgs))
        for i in range(nb):
            want, bounds, alone = self.oracle(spec, n, i, joints)
            assert values[i].tolist() == alone
            assert_within(alone, (want, bounds))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    n=st.integers(2, 300),
    d=st.integers(1, 3),
    depth=st.integers(1, 3),
    spec=st.sampled_from(FAMILIES),
    shares=st.lists(
        st.tuples(st.sampled_from([1, 2]), st.floats(0.0, 1.0)), min_size=1, max_size=6
    ),
    joint_lags=st.tuples(st.integers(0, 8), st.integers(0, 8)),
    seed=st.integers(0, 2**32 - 1),
)
def test_pass_against_per_lag_route(n, d, depth, spec, shares, joint_lags, seed):
    # Random lags of both directions anywhere in 0..n - 2, and one joint
    # per direction, on a stack of 1 to 3 pairs.
    rng = np.random.default_rng(seed)
    top = n - 2
    singles = sorted({(direction, round(share * top)) for direction, share in shares})
    joints = [LagConfig(direction, max_lag=min(m, top)) for direction, m in zip((1, 2), joint_lags)]
    cfgs = [LagConfig(direction, m=m) for direction, m in singles] + joints
    # Every single a joint sums, read through a config of its own.
    parts = [[LagConfig(c.direction, m=m) for m in range(c.lag + 1)] for c in joints]
    cfgs += parts[0] + parts[1]
    pairs = [
        (gram_matrix(spec, rng.normal(size=(n, d))).values,
         gram_matrix(spec, rng.normal(size=(n, d))).values)
        for _ in range(depth)
    ]
    stacked = stat_from_grams(np.stack([p[0] for p in pairs]), np.stack([p[1] for p in pairs]), cfgs)
    for i, (g1, g2) in enumerate(pairs):
        values = stat_from_grams(g1, g2, cfgs)
        # A stack item has the bits of its pair alone.
        assert stacked[i].tolist() == values.tolist()
        assert_within(values.tolist(), per_lag_oracle(g1, g2, cfgs))
        for c, value in zip(cfgs, values.tolist()):
            if c.is_joint:
                continue
            # Each lag has the bits of the same lag in a set of its own, of
            # the single the pass computes, and at lag 0 of hsic_v.
            assert value == hsic_module.single_from_grams(g1, g2, c.m, c.direction)
            assert value == stat_from_grams(g1, g2, c)
            if c.m == 0:
                assert value == hsic_v(g1, g2)
        # A joint adds its singles in ascending lag.
        offset = len(singles) + 2
        for j, c in enumerate(joints):
            own = values[offset : offset + c.lag + 1].tolist()
            assert values[len(singles) + j] == sum(own)
            offset += c.lag + 1
        # The pass's row dots are the split cross term of each window.
        for direction, m in singles:
            terms = hsic_module._lag_terms(g1, g2, {direction: [m]})
            dots = terms[direction, m][2]
            assert np.array_equal(dots, split_cross_dots(*lag_windows(g1, g2, m, direction)))


def nested_constant(g, n, where):
    """``g`` made constant (0.7) on its leading or trailing (n - 3) x (n - 3) block."""
    g = g.copy()
    if where == "leading":
        g[: n - 3, : n - 3] = 0.7
    else:
        g[3:, 3:] = 0.7
    return g


class TestNestedConstantWindows:
    """A Gram constant on a principal block zeroes exactly the lags whose window
    lies in the block, whichever lag the row screen looks at, and a screen
    row that is constant zeroes nothing unless its window is constant."""

    N = 40
    CFGS = [LagConfig(d, m=m) for d in (1, 2) for m in range(11)] + [
        LagConfig(d, max_lag=10) for d in (1, 2)
    ]

    @staticmethod
    def constant_lags(where, role):
        """Lags whose window of the special Gram is constant, in that role.

        The leading block holds the lead windows G[:n-m, :n-m] from m = 3
        on, and the trailing block the trailing windows G[m:, m:]; no
        window of the other role lies in the block.
        """
        if (where, role) in (("leading", "lead"), ("trailing", "trail")):
            return set(range(3, 11))
        return set()

    @pytest.mark.parametrize("where", ["leading", "trailing"])
    @pytest.mark.parametrize("side", [1, 2])
    @pytest.mark.parametrize("stacked", [False, True], ids=["alone", "stack_item"])
    def test_zero_exactly_where_a_window_is_constant(self, where, side, stacked):
        n = self.N
        g1, g2 = random_grams(np.random.default_rng([n, side]), n)
        if side == 1:
            g1 = nested_constant(g1, n, where)
        else:
            g2 = nested_constant(g2, n, where)
        want = per_lag_oracle(g1, g2, self.CFGS)
        if stacked:
            others = [random_grams(np.random.default_rng([n, 9, i]), n) for i in range(4)]
            pairs = others[:2] + [(g1, g2)] + others[2:]
            values = stat_from_grams(
                np.stack([p[0] for p in pairs]), np.stack([p[1] for p in pairs]), self.CFGS
            )
            assert (np.delete(values, 2, axis=0) != 0.0).all()
            values = values[2]
            assert values.tolist() == stat_from_grams(g1, g2, self.CFGS).tolist()
        else:
            values = stat_from_grams(g1, g2, self.CFGS)
        assert_within(values.tolist(), want)
        for direction in (1, 2):
            # g1 leads in direction 1 and g2 in direction 2.
            zero = self.constant_lags(where, "lead" if side == direction else "trail")
            singles = values[(direction - 1) * 11 : direction * 11]
            assert [v == 0.0 for v in singles] == [m in zero for m in range(11)]
        assert (values[-2:] != 0.0).all()

    @staticmethod
    def screen_rows(g, n):
        """``g`` with row and column 0 set to 0.7, and row and column n - 1:
        the rows that the constant screens of both roles look at, constant
        over the whole Gram while no window of two or more rows is."""
        g = g.copy()
        g[[0, n - 1], :] = 0.7
        g[:, [0, n - 1]] = 0.7
        return g

    @pytest.mark.parametrize("stacked", [False, True], ids=["alone", "stack_item"])
    def test_constant_screen_row_leaves_its_windows_nonzero(self, stacked):
        # Every lead window's row 0 and every trailing window's last row is
        # constant, so the screens fire at every lag and direction, and the
        # exact check must find no constant window.  As a stack, the pair
        # sits among pairs whose screens fire too and one with constant
        # windows, and each item keeps its values alone.
        n = self.N
        g1, g2 = random_grams(np.random.default_rng([n, 5]), n)
        g1, g2 = self.screen_rows(g1, n), self.screen_rows(g2, n)
        want = per_lag_oracle(g1, g2, self.CFGS)
        values = stat_from_grams(g1, g2, self.CFGS)
        assert (values != 0.0).all()
        assert_within(values.tolist(), want)
        if stacked:
            others = [random_grams(np.random.default_rng([n, 6, i]), n) for i in range(3)]
            pairs = [(self.screen_rows(a, n), self.screen_rows(b, n)) for a, b in others]
            pairs[1] = (pairs[1][0], nested_constant(pairs[1][1], n, "trailing"))
            pairs.insert(2, (g1, g2))
            stacked_values = stat_from_grams(
                np.stack([p[0] for p in pairs]), np.stack([p[1] for p in pairs]), self.CFGS
            )
            for i, pair in enumerate(pairs):
                assert stacked_values[i].tolist() == stat_from_grams(*pair, self.CFGS).tolist()
            # Pair 1's trailing block holds direction 1's trailing windows
            # from m = 3 on, and those alone.
            zero = stacked_values[1] == 0.0
            assert zero.tolist() == [3 <= m <= 10 for m in range(11)] + [False] * 13


def pairwise_sum(x):
    """numpy's pairwise sum of the floats ``x``, step by step (see
    bounds.pairwise_depth): left to right from 0.0 below 8 terms, eight
    running sums and a tree up to 128, halves split at a multiple of 8
    above."""
    n = len(x)
    if n < 8:
        total = 0.0
        for v in x:
            total += v
        return total
    if n <= 128:
        lanes = list(x[:8])
        i = 8
        while i < n - n % 8:
            for j in range(8):
                lanes[j] += x[i + j]
            i += 8
        total = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + (
            (lanes[4] + lanes[5]) + (lanes[6] + lanes[7])
        )
        for v in x[i:]:
            total += v
        return total
    half = n // 2 - (n // 2) % 8
    return pairwise_sum(x[:half]) + pairwise_sum(x[half:])


class TestNumpyReductionOrder:
    """The numpy reductions that the bits of every HSIC value rest on: a
    numpy that changes them fails here by name.

    The pass sums each Gram row with ``np.add.reduce`` along the row, tile
    by tile, and each window's entries with the same reduce.  A row's sum
    must not depend on the rows or stack items around it, and it must be
    the pairwise sum whose depth the rounding bounds assume.
    """

    @staticmethod
    def sequential(x):
        acc = x[..., 0, :].copy()
        for r in range(1, x.shape[-2]):
            acc += x[..., r, :]
        return acc

    @pytest.mark.parametrize("width", [2, 9, 500])
    @pytest.mark.parametrize("stack", [(), (3,)], ids=["2d", "3d"])
    def test_sums_add_rows_in_order(self, stack, width):
        big = np.random.default_rng(width).normal(size=stack + (306, width + 1))
        # A contiguous array, and a window of a larger one as the pass reads it.
        window = big[..., 5:, 1:]
        rows = np.ascontiguousarray(window).reshape(-1, width)
        alone = [np.add.reduce(row.copy()) for row in rows]
        for x in (np.ascontiguousarray(window), window):
            whole = np.add.reduce(x, axis=-1)
            assert whole.reshape(-1).tolist() == alone
            # Row tiles of any height give the same sums.
            tiles = np.empty_like(whole)
            for r0 in range(0, 301, 37):
                np.add.reduce(x[..., r0 : r0 + 37, :], -1, None, tiles[..., r0 : r0 + 37])
            assert np.array_equal(tiles, whole)
        assert alone[:20] == [pairwise_sum(row.tolist()) for row in rows[:20]]
        # Pairwise and sequential sums differ at this width, so the check
        # above sees a change of order.
        if width == 500:
            assert alone[:20] != self.sequential(rows[:20, :, None])[:, 0].tolist()

    @pytest.mark.parametrize("n", [7, 8, 9, 120, 128, 129, 136, 255, 499, 700, 2000])
    def test_pairwise_sum_and_its_depth(self, n):
        # The replica at every branch, and the rounding its depth allows:
        # the sum is within gamma(depth) of the exact one, and fsum rounds
        # that once more, and the sizes' fsum once, by u of their sum each.
        x = np.random.default_rng(n).normal(size=n) * np.geomspace(1e-6, 1e6, n)
        assert np.add.reduce(x) == pairwise_sum(x.tolist())
        size = math.fsum(np.abs(x).tolist())
        bound = gamma(pairwise_depth(n) + 2) * size
        assert abs(np.add.reduce(x) - math.fsum(x.tolist())) <= bound

    @pytest.mark.parametrize("n", [2, 9, 257, 500])
    @pytest.mark.parametrize("stack", [(), (3,)], ids=["2d", "3d"])
    def test_reduce_into_a_strided_slot_sums_as_sum(self, stack, n):
        # The pass reduces each lag's row of a (..., lags, n) buffer, or a
        # window of it, into one slot of a (..., lags) array; each value
        # must have the bits of .sum(axis=-1) on a fresh contiguous copy.
        big = np.random.default_rng(n).normal(size=stack + (4, n + 3))
        slots = np.empty(stack + (4,))
        for x in (big[..., 2, :n], big[..., 1, 3:], np.ascontiguousarray(big[..., 0, :n])):
            np.add.reduce(x, axis=-1, out=slots[..., 1])
            assert np.array_equal(slots[..., 1], np.ascontiguousarray(x).sum(axis=-1))
        # Pairwise and sequential sums differ at this length, so the check
        # above sees a change of order.
        if n == 500:
            x = big[..., 0, :n]
            assert not np.array_equal(x.sum(axis=-1), self.sequential(x[..., None])[..., 0])


class TestLagConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            LagConfig(direction=3, m=0)
        with pytest.raises(ValueError):
            LagConfig(direction=1)
        with pytest.raises(ValueError):
            LagConfig(direction=1, m=0, max_lag=2)
        with pytest.raises(ValueError):
            LagConfig(direction=1, m=-1)

    def test_labels(self):
        assert LagConfig(direction=1, m=0).label == "S1(0)"
        assert LagConfig(direction=2, max_lag=3).label == "J2(3)"


class TestPairedResiduals:
    def test_length_mismatch(self):
        with pytest.raises(DataError):
            PairedResiduals(np.zeros((5, 1)), np.zeros((6, 1)))

    def test_non_finite(self):
        bad = np.zeros((5, 1))
        bad[2] = np.nan
        with pytest.raises(DataError):
            PairedResiduals(bad, np.zeros((5, 1)))
