import numpy as np
import pytest

from sneakpath import codec as gs
from sneakpath.channel import ChannelParams, compute_sneak_mask, read_array
from sneakpath.detectors import (
    ThresholdDetector,
    classify_array,
    default_grid,
    derive_threshold,
    pipeline_detect,
)

PARAMS = ChannelParams(sigma=0.0, p_f=0.0)


class TestThresholdDetector:
    def test_midpoint_value(self):
        assert ThresholdDetector.midpoint(PARAMS).r_th == 550.0

    def test_decisions(self):
        det = ThresholdDetector(550.0)
        r = np.array([[100.0, 1000.0], [200.0, 550.0]])
        # 200 ohm = sneak-path-affected HRS reads as '1' (the 0 -> 1 error mode);
        # exact threshold ties resolve to 0.
        assert det.detect(r).tolist() == [[1, 0], [1, 0]]

    def test_out_of_range_warns(self):
        with pytest.warns(UserWarning):
            ThresholdDetector.checked(50.0, PARAMS)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(0)
        r = rng.uniform(50, 1100, (16, 16))
        prev = ThresholdDetector(100.0).detect(r)
        for t in np.linspace(150, 1050, 19):
            cur = ThresholdDetector(t).detect(r)
            assert (cur >= prev).all()
            prev = cur


class TestClassifyArray:
    def test_clean_channel_is_free(self):
        a = np.kron(np.eye(2, dtype=int), np.ones((4, 4), dtype=int))
        reads = read_array(a, np.zeros_like(a), PARAMS, 1)
        est = ThresholdDetector.midpoint(PARAMS).detect(reads)
        cls = classify_array(est, gs.tile_weights(a, 4), 4)
        assert not cls.affected
        assert cls.verdict == "SNEAK_PATH_FREE"

    def test_single_affected_cell_flags_array(self):
        a = np.array([[0, 1], [1, 1]])
        e = compute_sneak_mask(a, np.ones_like(a))
        reads = read_array(a, e, PARAMS, 1)
        est = ThresholdDetector.midpoint(PARAMS).detect(reads)
        cls = classify_array(est, [int(a.sum())], 2)
        assert cls.affected
        assert est.sum() == a.sum() + 1  # detected weight exceeds stored by one

    def test_compensating_flips_are_missed(self):
        # A 1 -> 0 flip paired with a 0 -> 1 flip keeps the weight; this
        # false-negative mode is inherent to weight comparison.
        a = np.array([[1, 0], [0, 1]])
        est = np.array([[0, 1], [0, 1]])
        cls = classify_array(est, [int(a.sum())], 2)
        assert not cls.affected

    def test_geometry_mismatch(self):
        with pytest.raises(ValueError):
            classify_array(np.zeros((4, 4), dtype=int), [0], 2)


class TestDeriveThreshold:
    def test_degenerate_pool_returns_smallest_zero_distance_point(self):
        reads = [np.array([[100.0, 1000.0], [100.0, 1000.0]])]
        hard = [np.array([[1, 0], [1, 0]])]
        grid = np.arange(100.0, 1001.0, 1.0)
        res = derive_threshold(reads, hard, grid)
        assert res.distances[res.grid == res.r_th_spi][0] == 0
        # smallest zero-distance grid value: first point above 100
        assert res.r_th_spi == 101.0

    def test_three_level_example(self):
        reads = [np.array([[100.0, 200.0], [1000.0, 1000.0]])]
        hard = [np.array([[1, 1], [0, 0]])]
        res = derive_threshold(reads, hard, np.arange(100.0, 1001.0, 1.0))
        assert 200.0 < res.r_th_spi <= 201.0
        assert res.distances.min() == 0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        reads = [rng.uniform(50, 1100, (8, 8)) for _ in range(5)]
        hard = [(rng.random((8, 8)) < 0.5).astype(int) for _ in range(5)]
        grid = np.arange(100.0, 1001.0, 7.0)
        res = derive_threshold(reads, hard, grid)
        brute = np.array([
            sum(int((( r < t).astype(int) != h).sum()) for r, h in zip(reads, hard))
            for t in grid
        ])
        assert np.array_equal(res.distances, brute)
        assert res.distances[np.argmin(brute)] == brute.min()
        assert (res.distances >= res.distances[res.grid == res.r_th_spi][0]).all()

    def test_empty_pool(self):
        with pytest.raises(ValueError):
            derive_threshold([], [], np.array([550.0]))


class TestPipeline:
    def test_clean_channel_zero_errors(self):
        a = np.kron(np.eye(2, dtype=int), np.ones((4, 4), dtype=int))
        reads = read_array(a, np.zeros_like(a), PARAMS, 1)
        est, cls = pipeline_detect(reads, gs.tile_weights(a, 4), 4, PARAMS,
                                   spi_detector=ThresholdDetector(150.0))
        assert not cls.affected
        assert np.array_equal(est, a)

    def test_affected_array_uses_spi_threshold(self):
        a = np.array([[0, 1], [1, 1]])
        e = compute_sneak_mask(a, np.ones_like(a))
        reads = read_array(a, e, PARAMS, 1)
        est, cls = pipeline_detect(reads, [int(a.sum())], 2, PARAMS,
                                   spi_detector=ThresholdDetector(150.0))
        assert cls.affected
        assert np.array_equal(est, a)  # 150 ohm threshold resolves the 200 ohm cell

    def test_missing_model_or_threshold(self):
        a = np.array([[0, 1], [1, 1]])
        e = compute_sneak_mask(a, np.ones_like(a))
        reads = read_array(a, e, PARAMS, 1)
        with pytest.raises(ValueError):
            pipeline_detect(reads, [int(a.sum())], 2, PARAMS)
        with pytest.raises(ValueError):
            pipeline_detect(reads, [int(a.sum())], 2, PARAMS, model=object(),
                            spi_detector=ThresholdDetector(150.0))


def test_default_grid_covers_r1_to_r0():
    grid = default_grid(PARAMS)
    assert grid[0] == 100.0
    assert grid[-1] == 1000.0
    assert len(grid) == 901
