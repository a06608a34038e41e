import numpy as np
import pytest
from numpy.testing import assert_allclose

import tsindep.kernels as kernels_module
from tsindep import DataError, KernelSpec, eval_kernel, gram_matrix, median_heuristic_sigma
from tsindep.kernels import _exponent_scale

ALL_SPECS = [
    KernelSpec.gaussian(1.0),
    KernelSpec.gaussian(2.5),
    KernelSpec.laplace(1.0),
    KernelSpec.inverse_multiquadric(1.0, 1.0),
    KernelSpec.inverse_multiquadric(0.5, 2.0),
    KernelSpec.fbm(0.5),
    KernelSpec.fbm(0.3),
]
BOUNDED_SPECS = [s for s in ALL_SPECS if s.family != "fbm"]


def sq_dists_by_coordinate(pts):
    """Oracle: add the squared differences one coordinate at a time."""
    cols = pts.T
    sq = np.subtract.outer(cols[0], cols[0])
    sq *= sq
    for col in cols[1:]:
        diff = np.subtract.outer(col, col)
        diff *= diff
        sq += diff
    return sq


def kernel_of(spec, sq, pts):
    """Oracle: the kernel's ufuncs, step by step, on squared distances ``sq``
    between the rows of ``pts``."""
    if spec.family == "gaussian":
        return np.exp(sq * _exponent_scale(spec))
    if spec.family == "laplace":
        return np.exp(np.sqrt(sq) * _exponent_scale(spec))
    if spec.family == "inverse_multiquadric":
        return np.power(np.sqrt(sq) + spec.beta, -spec.alpha)
    norms = np.einsum("ij,ij->i", pts, pts) ** spec.hurst
    return np.multiply(norms[:, None] + norms[None, :] - sq**spec.hurst, 0.5)


class TestKernelSpec:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            KernelSpec("gaussian", sigma=-1.0)
        with pytest.raises(ValueError):
            KernelSpec("gaussian")  # sigma missing
        with pytest.raises(ValueError):
            KernelSpec("gaussian", sigma=1.0, hurst=0.5)  # stray parameter
        with pytest.raises(ValueError):
            KernelSpec("fbm", hurst=1.5)
        with pytest.raises(ValueError):
            KernelSpec("inverse_multiquadric", alpha=1.0)  # beta missing
        with pytest.raises(ValueError):
            KernelSpec("unknown")

    def test_diagonal_values(self):
        assert KernelSpec.gaussian(3.0).diagonal_value() == 1.0
        assert KernelSpec.laplace(0.5).diagonal_value() == 1.0
        spec = KernelSpec.inverse_multiquadric(2.0, 4.0)
        assert_allclose(spec.diagonal_value(), 4.0**-2.0)
        assert KernelSpec.fbm(0.4).diagonal_value() is None


class TestEvalKernel:
    def test_gaussian_identical_points(self):
        u = np.array([0.3, -1.2, 4.0])
        assert eval_kernel(KernelSpec.gaussian(1.0), u, u) == 1.0

    def test_gaussian_known_value(self):
        # ||u - v||^2 / (2 sigma^2) = 2 / 2 = 1
        val = eval_kernel(KernelSpec.gaussian(1.0), [0.0], [np.sqrt(2.0)])
        assert_allclose(val, np.exp(-1.0), rtol=1e-12)

    def test_imq_identical_points(self):
        val = eval_kernel(KernelSpec.inverse_multiquadric(1.0, 1.0), [1.0, 2.0], [1.0, 2.0])
        assert val == 1.0

    def test_fbm_known_value(self):
        val = eval_kernel(KernelSpec.fbm(0.5), [1.0], [0.0])
        assert_allclose(val, 0.0, atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DataError):
            eval_kernel(KernelSpec.gaussian(1.0), [1.0], [1.0, 2.0])

    def test_non_finite_input(self):
        with pytest.raises(DataError):
            eval_kernel(KernelSpec.gaussian(1.0), [np.nan], [1.0])

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_symmetry(self, spec):
        rng = np.random.default_rng(7)
        for _ in range(20):
            u = rng.normal(size=3)
            v = rng.normal(size=3)
            assert eval_kernel(spec, u, v) == eval_kernel(spec, v, u)

    @pytest.mark.parametrize("spec", BOUNDED_SPECS)
    def test_translation_invariance(self, spec):
        rng = np.random.default_rng(11)
        for _ in range(20):
            u, v, c = rng.normal(size=(3, 4))
            assert_allclose(
                eval_kernel(spec, u + c, v + c), eval_kernel(spec, u, v), rtol=1e-12
            )


class TestGramMatrix:
    def test_two_identical_points(self):
        g = gram_matrix(KernelSpec.gaussian(1.0), [[1.0, 2.0], [1.0, 2.0]])
        assert_allclose(g.values, np.ones((2, 2)))
        assert g.n_points == 2

    def test_off_diagonal_known(self):
        g = gram_matrix(KernelSpec.gaussian(1.0), [[0.0], [np.sqrt(2.0)]])
        assert_allclose(g.values[0, 1], np.exp(-1.0), rtol=1e-12)
        assert_allclose(np.diag(g.values), 1.0)

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_matches_pairwise_eval(self, spec):
        rng = np.random.default_rng(3)
        for d in (1, 2, 5):
            pts = rng.normal(size=(12, d))
            g = gram_matrix(spec, pts).values
            for i in range(12):
                for j in range(12):
                    assert_allclose(g[i, j], eval_kernel(spec, pts[i], pts[j]), rtol=1e-12)

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_exact_symmetry(self, spec):
        rng = np.random.default_rng(17)
        for d in (1, 2, 3, 5):
            for n in (25, 500):
                g = gram_matrix(spec, rng.normal(size=(n, d))).values
                assert np.array_equal(g, g.T)

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_sq_dists_match_coordinate_loop(self, d):
        # Exact: the Gram bits and the reports rest on the squared distances
        # equalling the coordinate loop.  If a scipy build breaks it, keep
        # the coordinate loop for the affected d; do not widen the test.
        rng = np.random.default_rng(31 + d)
        for n in (1, 2, 7, 100, 500):
            for scale in (1e-3, 1.0, 1e3):
                pts = scale * rng.normal(size=(n, d))
                for spec in ALL_SPECS:
                    want = kernel_of(spec, sq_dists_by_coordinate(pts), pts)
                    assert np.array_equal(gram_matrix(spec, pts).values, want)
        # The bootstrap passes row views of a (blocks, n, d) stack.
        stack = rng.normal(size=(3, 504, d))
        view = stack[1, 4:]
        for spec in ALL_SPECS:
            want = kernel_of(spec, sq_dists_by_coordinate(view), view)
            assert np.array_equal(gram_matrix(spec, view).values, want)

    @pytest.mark.parametrize("spec", BOUNDED_SPECS)
    def test_positive_semidefinite(self, spec):
        # PSD oracle: eigendecomposition of random Gram matrices.
        rng = np.random.default_rng(23)
        for _ in range(5):
            pts = rng.normal(size=(10, 2))
            g = gram_matrix(spec, pts).values
            eigmin = np.linalg.eigvalsh(g).min()
            assert eigmin >= -1e-10 * g.shape[0]

    @pytest.mark.parametrize("spec", BOUNDED_SPECS)
    def test_entries_in_range(self, spec):
        rng = np.random.default_rng(29)
        pts = rng.normal(size=(15, 2))
        g = gram_matrix(spec, pts).values
        top = spec.diagonal_value()
        assert (g > 0.0).all()
        assert (g <= top + 1e-15).all()

    def test_rejects_non_finite(self):
        with pytest.raises(DataError):
            gram_matrix(KernelSpec.gaussian(1.0), [[1.0], [np.inf]])

    def test_rejects_zero_columns(self):
        with pytest.raises(DataError):
            gram_matrix(KernelSpec.gaussian(1.0), np.empty((3, 0)))

    def test_single_point(self):
        g = gram_matrix(KernelSpec.gaussian(1.0), [[4.2]])
        assert g.values.shape == (1, 1)

    @pytest.mark.parametrize("nb", [1, 2, 5])
    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_stack_items_equal_single_grams(self, spec, nb):
        rng = np.random.default_rng([nb, 7])
        for d in (1, 2, 5):
            for n in (1, 9, 100):
                pts = rng.normal(size=(nb, n, d))
                g = gram_matrix(spec, pts)
                assert g.values.shape == (nb, n, n) and g.n_points == n
                for i in range(nb):
                    assert np.array_equal(g.values[i], gram_matrix(spec, pts[i]).values)
        # Items of a strided view, as the bootstrap passes them.
        view = rng.normal(size=(4, 60, 2))[::2, 5:]
        g = gram_matrix(spec, view).values
        assert all(np.array_equal(g[i], gram_matrix(spec, view[i]).values) for i in range(2))

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_out_buffer_gets_the_same_bits(self, spec):
        rng = np.random.default_rng(8)
        for shape in ((30, 2), (4, 30, 2)):
            pts = rng.normal(size=shape)
            out = np.full(shape[:-1] + shape[-2:-1], np.nan)
            g = gram_matrix(spec, pts, out=out)
            assert g.values is out
            assert np.array_equal(out, gram_matrix(spec, pts).values)
        with pytest.raises(ValueError):
            gram_matrix(spec, pts, out=np.empty((3, 30, 30)))
        with pytest.raises(ValueError):
            gram_matrix(spec, pts, out=np.empty((4, 30, 60))[..., :30])

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_row_tiles_give_the_same_bits(self, monkeypatch, spec):
        # Tiles of n or more rows are the one-piece build; 7-row tiles cut
        # every Gram past n = 14, and the default cuts those past n = 256.
        rng = np.random.default_rng(41)
        for n in (1, 2, 127, 128, 129, 256, 257, 500):
            for shape in ((n, 3), (2, n, 3)):
                pts = rng.normal(size=shape)
                builds = {}
                for rows in (n, 7, kernels_module._GRAM_TILE_ROWS):
                    monkeypatch.setattr(kernels_module, "_GRAM_TILE_ROWS", rows)
                    out = np.full(shape[:-1] + (n,), np.nan)
                    builds[rows] = gram_matrix(spec, pts, out=out).values
                    assert np.array_equal(builds[rows], gram_matrix(spec, pts).values)
                    if len(shape) == 3:
                        assert np.array_equal(builds[rows][1], gram_matrix(spec, pts[1]).values)
                monkeypatch.undo()
                one_piece = builds.pop(n)
                assert all(np.array_equal(g, one_piece) for g in builds.values())

    def test_tiled_build_rejects_bad_out(self):
        pts = np.random.default_rng(42).normal(size=(2, 200, 2))
        for out in (np.empty((2, 200, 400))[..., :200], np.empty((2, 200, 200), dtype=np.float32)):
            with pytest.raises(ValueError):
                gram_matrix(KernelSpec.gaussian(1.0), pts, out=out)

    def test_stack_rejects_bad_points(self):
        bad = np.zeros((2, 3, 1))
        bad[1, 2, 0] = np.nan
        for pts in (bad, np.empty((0, 3, 1)), np.empty((2, 3, 0)), np.zeros((1, 2, 2, 1))):
            with pytest.raises(DataError):
                gram_matrix(KernelSpec.gaussian(1.0), pts)


def test_median_heuristic():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(50, 2))
    sigma = median_heuristic_sigma(pts)
    diffs = pts[:, None, :] - pts[None, :, :]
    dists = np.sqrt((diffs**2).sum(-1))[np.triu_indices(50, k=1)]
    assert_allclose(sigma, np.median(dists) / np.sqrt(2.0), rtol=1e-12)
    with pytest.raises(DataError):
        median_heuristic_sigma(np.ones((5, 2)))
