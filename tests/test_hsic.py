import numpy as np
import pytest
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
        assert direct == hsic_v(k, l)

    def test_direction_two_alignment(self):
        rng = np.random.default_rng(7)
        e1 = rng.normal(size=(30, 1))
        e2 = rng.normal(size=(30, 1))
        res = PairedResiduals(e1, e2)
        k = gram_matrix(GAUSS, e1[4:]).values
        l = gram_matrix(GAUSS, e2[:26]).values
        # Series 2 leads: its window is summed top-down, series 1's bottom-up.
        assert single_stat(res, 4, 2, GAUSS, GAUSS) == hsic_v(l, k)

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

        def counting(g1, g2, direction, lags, **kwargs):
            passes.append((direction, list(lags)))
            return real(g1, g2, direction, lags, **kwargs)

        monkeypatch.setattr(hsic_module, "_lag_terms", counting)
        shared = stat_from_grams(g1, g2, cfgs)
        assert shared.shape == (5,)
        assert shared.tolist() == separate
        # Lags 0..5 of direction 1 and 1..5 of direction 2, once each.
        want = [(1, list(range(6))), (2, list(range(1, 6)))]
        assert passes == want
        # S2(0) is served by the single S1(0) needs, with no new lag.
        passes.clear()
        with_s20 = stat_from_grams(g1, g2, cfgs + [LagConfig(direction=2, m=0)])
        assert passes == want
        assert with_s20.tolist() == separate + [separate[0]]

    def test_lagscan_configs_take_one_pass_per_direction(self, monkeypatch):
        # The configs of `tsindep lagscan --max-lag 10`, on one matrix
        # pair and on a stack.
        cfgs = [LagConfig(direction=d, m=m) for d in (1, 2) for m in range(11)]
        g1, g2 = random_grams(np.random.default_rng(20), 60)
        separate = [stat_from_grams(g1, g2, cfg) for cfg in cfgs]
        passes = []
        real = hsic_module._lag_terms

        def counting(g1, g2, direction, lags, **kwargs):
            passes.append((g1.ndim, direction, sorted(lags)))
            return real(g1, g2, direction, lags, **kwargs)

        monkeypatch.setattr(hsic_module, "_lag_terms", counting)
        assert stat_from_grams(g1, g2, cfgs).tolist() == separate
        stack1, stack2 = np.stack([g1, g2]), np.stack([g2, g1])
        stacked = stat_from_grams(stack1, stack2, cfgs)
        assert stacked.shape == (2, 22)
        assert stacked[0].tolist() == separate
        lags = {1: list(range(11)), 2: list(range(1, 11))}
        assert passes == [(ndim, d, lags[d]) for ndim in (2, 3) for d in (1, 2)]


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


class TestMultiLagPass:
    """The one-pass terms of every lag against hsic_v on each lag's windows."""

    @staticmethod
    def check_pass(g1, g2, lags):
        for direction in (1, 2):
            terms = hsic_module._lag_terms(g1, g2, direction, lags)
            assert sorted(terms) == sorted(lags)
            for m in lags:
                k, l = lag_windows(g1, g2, m, direction)
                lead, trail = (k, l) if direction == 1 else (l, k)
                c_k, c_l, dots = terms[m]
                c_lead, c_trail = (c_k, c_l) if direction == 1 else (c_l, c_k)
                assert np.array_equal(c_lead, lead.sum(axis=0))
                assert np.array_equal(c_trail, trail[::-1].sum(axis=0))
                assert np.array_equal(dots, split_cross_dots(k, l))
                # At m = 0 both directions take direction 1's order.
                want = hsic_module.single_from_grams(g1, g2, m, direction)
                assert want == (hsic_v(lead, trail) if m else hsic_v(g1, g2))

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
        # A config computes only the lags the shared dict lacks.
        g1, g2 = random_grams(np.random.default_rng(15), 301)
        self.check_pass(g1, g2, lags)

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
        # Column-major input is copied to row-major, so the top-down
        # column sums are the ones hsic_v takes on the windows.
        g1, g2 = random_grams(np.random.default_rng(17), 130)
        for cfg in (LagConfig(1, max_lag=5), LagConfig(2, max_lag=5), LagConfig(2, m=3)):
            assert stat_from_grams(g1.T, g2.T, cfg) == stat_from_grams(g1, g2, cfg)

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
        for direction in (1, 2):
            lags = list(range(39))
            terms = hsic_module._lag_terms(g1, g2, direction, lags)
            for i in range(3):
                alone = hsic_module._lag_terms(g1[i], g2[i], direction, lags)
                for m in lags:
                    for part, want in zip(terms[m], alone[m]):
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
    """The per-lag route: hsic_v on each lag's lead and trailing window.

    Lag 0 is hsic_v(g1, g2) in both directions, and joints add their
    singles in ascending m.
    """
    singles = {}

    def single(direction, m):
        if (direction, m) not in singles:
            lead, trail = lag_windows(g1, g2, m, direction)[:: 1 if direction == 1 else -1]
            singles[direction, m] = hsic_v(lead, trail) if m else hsic_v(g1, g2)
        return singles[direction, m]

    return [
        sum(single(c.direction, m) for m in range(c.lag + 1))
        if c.is_joint
        else single(c.direction, c.m)
        for c in cfgs
    ]


class TestPassAgainstPerLagOracle:
    """stat_from_grams on every lag set against hsic_v on each lag's windows."""

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
        key = (spec.family, n, i, joints)
        if key not in self._oracles:
            self._oracles[key] = per_lag_oracle(*self.item(spec, n, i), lag_sets(n, joints))
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
            assert values.tolist() == self.oracle(spec, n, 0, joints)
            return
        pairs = [self.item(spec, n, i) for i in range(nb)]
        g1, g2 = (np.stack(side) for side in zip(*pairs))
        values = stat_from_grams(g1, g2, cfgs)
        assert values.shape == (nb, len(cfgs))
        for i in range(nb):
            assert values[i].tolist() == self.oracle(spec, n, i, joints)


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
    lies in the block, whichever lag the column-sum screen looks at."""

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
        else:
            values = stat_from_grams(g1, g2, self.CFGS)
        assert values.tolist() == want
        for direction in (1, 2):
            # g1 leads in direction 1 and g2 in direction 2.
            zero = self.constant_lags(where, "lead" if side == direction else "trail")
            singles = values[(direction - 1) * 11 : direction * 11]
            assert [v == 0.0 for v in singles] == [m in zero for m in range(11)]
        assert (values[-2:] != 0.0).all()


class TestNumpyReductionOrder:
    """The row order of numpy's axis -2 sums, which the bits of every HSIC
    value rest on: a numpy that reorders them fails here by name.

    The order holds for two or more columns, and every Gram window has
    at least two; a single column is one strided axis, which numpy sums
    pairwise.
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
        for x in (np.ascontiguousarray(window), window):
            top_down, bottom_up = self.sequential(x), self.sequential(x[..., ::-1, :])
            assert np.array_equal(x.sum(axis=-2), top_down)
            assert np.array_equal(x[..., ::-1, :].sum(axis=-2), bottom_up)
            # The two orders differ, so the checks above can tell them apart.
            if width == 500:
                assert not np.array_equal(top_down, bottom_up)

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
