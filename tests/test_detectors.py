import numpy as np
import pytest

from sneakpath import analysis
from sneakpath import codec as gs
from sneakpath.channel import ChannelParams, compute_sneak_mask, read_array
from sneakpath.detectors import (
    classify_array,
    default_grid,
    derive_threshold,
    pipeline_detect,
    threshold_detect,
)

PARAMS = ChannelParams(sigma=0.0, p_f=0.0)
RNG = np.random.default_rng(1)  # at sigma = 0 its draws are all +0.0, so reads are nominal


class TestThresholdDetect:
    def test_midpoint_value(self):
        assert PARAMS.midpoint == 550.0

    def test_decisions(self):
        r = np.array([[100.0, 1000.0], [200.0, 550.0]])
        # 200 ohm = sneak-path-affected HRS reads as '1' (the 0 -> 1 error mode);
        # exact threshold ties resolve to 0.
        assert threshold_detect(r, 550.0).tolist() == [[1, 0], [1, 0]]

    def test_out_of_range_raises(self):
        # Every Scenario checks the range, not only the CLI's.
        def scenario(r_th):
            return analysis.Scenario(analysis.PIPELINE_THRESHOLD, PARAMS, threshold=r_th)

        for r_th in (50.0, 100.0, 1000.0, 1700.0):
            with pytest.raises(ValueError, match="outside"):
                scenario(r_th)
        assert scenario(170.0).threshold == 170.0

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(0)
        r = rng.uniform(50, 1100, (16, 16))
        prev = threshold_detect(r, 100.0)
        for t in np.linspace(150, 1050, 19):
            cur = threshold_detect(r, t)
            assert (cur >= prev).all()
            prev = cur


class TestClassifyArray:
    def test_clean_channel_is_free(self):
        a = np.kron(np.eye(2, dtype=int), np.ones((4, 4), dtype=int))
        reads = read_array(a, np.zeros_like(a), PARAMS, RNG)
        est = threshold_detect(reads, PARAMS.midpoint)
        cls = classify_array(est, gs.tile_weights(a, 4), 4)
        assert not cls.affected

    def test_single_affected_cell_flags_array(self):
        a = np.array([[0, 1], [1, 1]])
        e = compute_sneak_mask(a, np.ones_like(a))
        reads = read_array(a, e, PARAMS, RNG)
        est = threshold_detect(reads, PARAMS.midpoint)
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
        with pytest.raises(ValueError):
            classify_array(np.zeros((4, 4), dtype=int), np.zeros((2, 2), dtype=np.int64), 2)

    def test_list_and_array_weights_agree(self):
        a = np.kron(np.eye(2, dtype=int), np.ones((2, 2), dtype=int))
        est = a.copy()
        est[0, 3] = 1  # one extra '1' in the top-right tile
        for weights in ([4, 0, 0, 4], np.array([4, 0, 0, 4]), gs.tile_weights(a, 2)):
            assert classify_array(est, weights, 2).affected
            assert not classify_array(a, weights, 2).affected


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

    def test_empty_grid(self):
        # r0 - r1 <= 1 ohm leaves no 1-ohm step strictly between them.
        narrow = ChannelParams(r0=100.5, r1=100.0)
        with pytest.raises(ValueError, match="empty threshold grid"):
            default_grid(narrow)
        reads, hard = [np.full((2, 2), 100.2)], [np.ones((2, 2), dtype=int)]
        with pytest.raises(ValueError, match="empty threshold grid"):
            derive_threshold(reads, hard, np.empty(0))

    def test_misaligned_pool(self):
        reads = [np.full((2, 2), 150.0), np.full((2, 2), 900.0)]
        with pytest.raises(ValueError, match="misaligned"):
            derive_threshold(reads, [np.ones((2, 2), dtype=int)], np.array([550.0]))
        with pytest.raises(ValueError, match="misaligned"):
            derive_threshold(reads[:1], [], np.array([550.0]))


class TestPipeline:
    def test_clean_channel_zero_errors(self):
        a = np.kron(np.eye(2, dtype=int), np.ones((4, 4), dtype=int))
        reads = read_array(a, np.zeros_like(a), PARAMS, RNG)
        calls = []
        est = pipeline_detect(reads, gs.tile_weights(a, 4), 4, PARAMS, calls.append)
        assert np.array_equal(est, a)
        assert calls == []  # an unflagged array is never re-detected

    def test_affected_array_uses_spi_threshold(self):
        a = np.array([[0, 1], [1, 1]])
        e = compute_sneak_mask(a, np.ones_like(a))
        reads = read_array(a, e, PARAMS, RNG)
        calls = []

        def spi(r):
            calls.append(r)
            return threshold_detect(r, 150.0)

        est = pipeline_detect(reads, [int(a.sum())], 2, PARAMS, spi)
        assert len(calls) == 1  # the flagged array was re-detected
        assert np.array_equal(est, a)  # 150 ohm threshold resolves the 200 ohm cell

    def test_a_stack_is_detected_array_by_array(self):
        params = ChannelParams(n=8, sigma=30.0, p_f=0.05)
        rng = np.random.default_rng(4)
        a = (rng.random((12, 8, 8)) < 0.5).astype(np.int64)
        e = compute_sneak_mask(a, (rng.random((12, 8, 8)) < params.p_f).astype(np.int64))
        reads = read_array(a, e, params, rng)
        weights = gs.tile_weights(a, 4)
        calls = []

        def spi(r):
            calls.append(r)
            return threshold_detect(r, 150.0)

        est = pipeline_detect(reads, weights, 4, params, spi)
        flagged = [classify_array(threshold_detect(r, params.midpoint), w, 4).affected
                   for r, w in zip(reads, weights)]
        assert 0 < sum(flagged) < len(flagged)
        # Each flagged array is re-detected on its own, in stack order.
        assert len(calls) == sum(flagged)
        assert all(np.array_equal(c, r) for c, r in zip(calls, reads[flagged]))
        one_by_one = [pipeline_detect(r, w, 4, params, spi) for r, w in zip(reads, weights)]
        assert np.array_equal(est, one_by_one)


def test_default_grid_covers_r1_to_r0():
    # The open interval: r1 and r0 themselves are thresholds Scenario rejects.
    grid = default_grid(PARAMS)
    assert grid[0] == 101.0
    assert grid[-1] == 999.0
    assert len(grid) == 899
    assert np.array_equal(grid, np.arange(101.0, 1000.0))
    coarse = default_grid(PARAMS, step=7.0)
    assert coarse[0] == 107.0 and coarse[-1] == 996.0
    assert ((coarse > 100.0) & (coarse < 1000.0)).all()


@pytest.mark.parametrize("decision,expected", [(0, 101.0), (1, 151.0)])
def test_one_class_pool_gives_a_threshold_scenario_accepts(decision, expected):
    # On a closed grid the all-'0' pool would pick r1 (no '0' read lies below it) and the
    # all-'1' pool r0 (the 999.5-ohm read lies below it); the open grid stops one step short.
    reads = [np.array([[50.0, 150.0], [999.5, 1100.0]])] * 3
    hard = [np.full((2, 2), decision)] * 3
    r_th = derive_threshold(reads, hard, default_grid(PARAMS)).r_th_spi
    assert r_th == expected
    scn = analysis.Scenario(analysis.PIPELINE_THRESHOLD, PARAMS, threshold=r_th)
    assert scn.threshold == r_th
