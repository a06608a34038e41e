import warnings

import numpy as np
import pytest

from tsindep._streams import BOOTSTRAP, path_keys, substream
from tsindep.bootstrap import _draw_innovations

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
            block = _draw_innovations(pool, 700, seed, 128, 64, 2)
        for i in range(64):
            idx = substream(seed, BOOTSTRAP, 128 + i, 2).integers(0, 200, size=700)
            assert np.array_equal(block[i], pool.take(idx, axis=0))
