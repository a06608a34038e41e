import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tsindep.bootstrap as bootstrap_module
from tsindep import BootstrapConfig, LagConfig, bootstrap_run, fit_var
from tsindep._streams import BOOTSTRAP, path_keys, substream
from tsindep.bootstrap import _draw_innovations, _replicate_keys, _resample_indices

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**62 - 1]


class TestBulkStreamKeys:
    """The bulk keys restate numpy's SeedSequence hash: a numpy that changes
    it fails here by name, not deep inside a bootstrap report."""

    @staticmethod
    def numpy_keys(seed, paths):
        return np.array(
            [np.random.SeedSequence(seed, spawn_key=tuple(int(p) for p in path)).generate_state(2, np.uint64)
             for path in paths]
        )

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("series", [1, 2])
    def test_keys_match_seed_sequence(self, seed, series):
        paths = np.column_stack([np.full(200, BOOTSTRAP), np.arange(200), np.full(200, series)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            keys = path_keys(seed, paths)
        assert keys.dtype == np.uint64 and keys.shape == (200, 2)
        assert np.array_equal(keys, self.numpy_keys(seed, paths))

    @pytest.mark.parametrize("q", [1, 2, 5])
    def test_any_path_length_and_full_words(self, q):
        paths = np.random.default_rng(q).integers(0, 2**32, size=(40, q), dtype=np.uint64)
        paths[0] = 2**32 - 1
        for seed in (7, 2**64 - 1):
            assert np.array_equal(path_keys(seed, paths), self.numpy_keys(seed, paths))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            path_keys(-1, [[1]])
        with pytest.raises(ValueError):
            path_keys(2**64, [[1]])
        with pytest.raises(ValueError):
            path_keys(1, [[2**32]])
        with pytest.raises(ValueError):
            path_keys(1, [[-1]])
        with pytest.raises(ValueError):
            path_keys(1, np.zeros((3, 0), dtype=int))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_block_draws_match_substreams(self, seed):
        pool = np.random.default_rng(4).normal(size=(200, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            block = _draw_innovations(pool, 700, 0, seed, 128, _replicate_keys(seed, 128, 64, 2), 2)
        for i in range(64):
            idx = substream(seed, BOOTSTRAP, 128 + i, 2).integers(0, 200, size=700)
            assert np.array_equal(block[i], pool.take(idx, axis=0))


def integers_oracle(seed, b0, nb, series, n_sim, size):
    """Each replicate's indices from its own substream's ``Generator.integers``."""
    return np.array(
        [substream(seed, BOOTSTRAP, b0 + i, series).integers(0, size, size=n_sim) for i in range(nb)]
    )


def rejected_paths(seed, b0, nb, series, n_sim, size):
    """How many of the paths have a draw in Lemire's rejection zone, from
    their raw Philox words: the paths whose indices must come from the
    redraw."""
    limit = (2**32 - size) % size
    count = 0
    for key in _replicate_keys(seed, b0, nb, series):
        words = np.random.Philox(key=key).random_raw(-(-n_sim // 2))
        halves = np.column_stack([words & 0xFFFFFFFF, words >> 32]).ravel()[:n_sim]
        count += bool(((halves * np.uint64(size)) & 0xFFFFFFFF < limit).any())
    return count


class TestBoundedDraw:
    """The block map of raw Philox words against ``Generator.integers``."""

    # 3 * 2**30 + 1 rejects a quarter of all draws, so nearly every path is
    # redrawn; 2**32 maps a half to itself, and above it numpy uses 64-bit
    # words, so every path is redrawn.  No pool of these sizes is allocated.
    @pytest.mark.parametrize("size", [1, 2, 7, 100, 199, 1_000_003, 3 * 2**30 + 1, 2**32, 2**32 + 5])
    @pytest.mark.parametrize("n_sim", [1, 150, 151])
    def test_indices_match_generator_integers(self, size, n_sim):
        seed, b0, nb = 11, 40, 24
        rng = substream(seed, BOOTSTRAP, b0, 1)
        got = _resample_indices(rng, _replicate_keys(seed, b0, nb, 1), n_sim, size)
        assert got.dtype == np.int64 and got.shape == (nb, n_sim)
        assert np.array_equal(got, integers_oracle(seed, b0, nb, 1, n_sim, size))

    def test_rejection_sizes_take_the_redraw(self):
        # The sizes above that are meant to reject do so, on most paths.
        assert rejected_paths(11, 40, 24, 1, 150, 3 * 2**30 + 1) >= 20
        assert rejected_paths(11, 40, 24, 1, 150, 100) == 0

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(
        size=st.one_of(st.integers(1, 5000), st.integers(2**30, 2**32 + 8)),
        n_sim=st.integers(1, 320),
        seed=st.integers(0, 2**64 - 1),
        b0=st.integers(0, 2**32 - 4),
    )
    def test_any_size_and_stream(self, size, n_sim, seed, b0):
        rng = substream(seed, BOOTSTRAP, b0, 2)
        got = _resample_indices(rng, _replicate_keys(seed, b0, 3, 2), n_sim, size)
        assert np.array_equal(got, integers_oracle(seed, b0, 3, 2, n_sim, size))

    def test_run_keys_are_each_blocks_own(self, monkeypatch):
        # The run derives every replicate's key once; each block gets the
        # rows of its own replicates.
        draws = []
        original = bootstrap_module._draw_innovations

        def recorded(pool, n, burn, master_seed, b0, keys, series):
            draws.append((master_seed, b0, keys.copy(), series))
            return original(pool, n, burn, master_seed, b0, keys, series)

        monkeypatch.setattr(bootstrap_module, "_draw_innovations", recorded)
        rng = np.random.default_rng(6)
        fits = [fit_var(rng.normal(size=(60, 2)), 1, False) for _ in range(2)]
        cfg = BootstrapConfig(n_replicates=150, master_seed=2**40 + 3)
        bootstrap_run(*fits, [LagConfig(1, m=0)], cfg=cfg)
        assert sorted((d[3], d[1], len(d[2])) for d in draws) == [
            (s, b0, nb) for s in (1, 2) for b0, nb in ((0, 64), (64, 64), (128, 22))
        ]
        for seed, b0, keys, series in draws:
            nb = len(keys)
            rows = np.column_stack([np.full(nb, BOOTSTRAP), np.arange(b0, b0 + nb), np.full(nb, series)])
            assert np.array_equal(keys, path_keys(seed, rows))
