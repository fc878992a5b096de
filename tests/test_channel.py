import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sneakpath.channel import (
    ChannelParams,
    compute_sneak_mask,
    count_possible_sneak_paths,
    random_array,
    read_array,
    sample_failures,
)
from sneakpath.rng import STREAM_FAILURES, derive_rng

PAPER = dict(r0=1000.0, r1=100.0, r_sp=250.0)


def brute_sneak_mask(a, fails):
    n = a.shape[0]
    e = np.zeros((n, n), dtype=int)
    for i in range(n):
        for j in range(n):
            if a[i, j] != 0:
                continue
            for u in range(n):
                for v in range(n):
                    if u != i and v != j and a[i, v] and a[u, v] and a[u, j] and fails[u, v]:
                        e[i, j] = 1
    return e


def brute_path_count(a):
    n = a.shape[0]
    total = 0
    for i in range(n):
        for j in range(n):
            if a[i, j] != 0:
                continue
            for u in range(n):
                for v in range(n):
                    if u != i and v != j and a[i, v] and a[u, v] and a[u, j]:
                        total += 1
    return total


binary_matrix = arrays(np.int64, (5, 5), elements=st.integers(0, 1))


class TestChannelParams:
    def test_r0_sp_is_parallel_combination(self):
        p = ChannelParams(**PAPER)
        assert p.r0_sp == pytest.approx(200.0)
        assert p.r1 < p.r0_sp < p.r0

    @pytest.mark.parametrize("kwargs", [
        dict(n=1), dict(r0=50.0, r1=100.0), dict(r_sp=0.0),
        dict(sigma=-1.0), dict(p_f=1.5), dict(sigma=np.nan), dict(sigma=np.inf),
        dict(r0=np.inf), dict(r_sp=np.inf), dict(p_f=np.nan),
    ])
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(ValueError):
            ChannelParams(**{**PAPER, **kwargs})


class TestSampleFailures:
    def test_degenerate_probabilities(self):
        rng = np.random.default_rng(1)
        assert sample_failures(ChannelParams(p_f=0.0), rng).sum() == 0
        assert sample_failures(ChannelParams(p_f=1.0), rng).sum() == 16 * 16

    def test_empirical_rate_matches_binomial(self):
        # 10^6 entries at p_f = 1e-3: stay within 3 binomial std-devs.
        p = ChannelParams(p_f=1e-3)
        total = sum(
            sample_failures(p, derive_rng(7, t, STREAM_FAILURES)).sum()
            for t in range(4000)
        )
        cells = 4000 * 256
        sd = np.sqrt(cells * 1e-3 * (1 - 1e-3))
        assert abs(total - cells * 1e-3) < 3 * sd

    def test_deterministic_given_seed(self):
        p = ChannelParams(p_f=0.3)
        a = sample_failures(p, derive_rng(5, 2, STREAM_FAILURES))
        b = sample_failures(p, derive_rng(5, 2, STREAM_FAILURES))
        assert np.array_equal(a, b)


class TestSneakMask:
    def test_all_ones_has_no_targets(self):
        a = np.ones((4, 4), dtype=int)
        fails = np.ones((4, 4), dtype=int)
        assert compute_sneak_mask(a, fails).sum() == 0

    def test_single_rectangle_example(self):
        a = np.array([[0, 1], [1, 1]])
        fails = np.array([[0, 0], [0, 1]])
        assert compute_sneak_mask(a, fails).tolist() == [[1, 0], [0, 0]]

    def test_no_failures_no_mask(self):
        a = np.array([[0, 1], [1, 1]])
        assert compute_sneak_mask(a, np.zeros((2, 2), dtype=int)).sum() == 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            compute_sneak_mask(np.zeros((2, 2), dtype=int), np.zeros((3, 3), dtype=int))

    def test_rejects_a_non_matrix(self):
        with pytest.raises(ValueError, match="must be a 2-D matrix"):
            compute_sneak_mask(np.zeros(4, dtype=int), np.zeros(4, dtype=int))

    @pytest.mark.parametrize("a,binary", [
        (np.array([[0, 1], [1, 1]]), True),
        (np.array([[False, True], [True, True]]), True),
        (np.array([[0.0, 1.0], [1.0, 1.0]]), True),
        (np.array([[0, 1], [1, 1]], dtype=np.uint8), True),
        (np.array([[0, 1], [1, 1]], dtype=object), True),
        (np.array([["0", "1"], ["1", "1"]]), False),
        (np.array([[0, 2], [1, 1]]), False),
        (np.array([[0, -1], [1, 1]]), False),
        (np.array([[0, 0.5], [1, 1]]), False),
        (np.array([[0, np.nan], [1, 1]]), False),
        (np.array([[0, None], [1, 1]], dtype=object), False),
    ])
    def test_accepts_only_zero_one_entries(self, a, binary):
        fails = np.array([[0, 0], [0, 1]])
        if binary:
            assert compute_sneak_mask(a, fails).tolist() == [[1, 0], [0, 0]]
        else:
            with pytest.raises(ValueError, match="binary"):
                compute_sneak_mask(a, fails)

    @settings(max_examples=60, deadline=None)
    @given(a=binary_matrix, fails=binary_matrix)
    def test_matches_exhaustive_enumeration(self, a, fails):
        assert np.array_equal(compute_sneak_mask(a, fails), brute_sneak_mask(a, fails))

    @settings(max_examples=40, deadline=None)
    @given(a=binary_matrix, fails=binary_matrix, data=st.data())
    def test_monotone_in_failures(self, a, fails, data):
        before = compute_sneak_mask(a, fails)
        i = data.draw(st.integers(0, 4))
        j = data.draw(st.integers(0, 4))
        more = fails.copy()
        more[i, j] = 1
        after = compute_sneak_mask(a, more)
        assert (after >= before).all()

    @settings(max_examples=40, deadline=None)
    @given(a=binary_matrix)
    def test_all_failed_mask_marks_every_possible_path(self, a):
        e = compute_sneak_mask(a, np.ones_like(a))
        counts = (a @ a.T @ a) * (1 - a)
        assert np.array_equal(e, (counts > 0).astype(int))


class TestPossiblePathCount:
    def test_all_zero(self):
        assert count_possible_sneak_paths(np.zeros((4, 4), dtype=int)) == 0

    def test_small_examples(self):
        assert count_possible_sneak_paths(np.array([[0, 1], [1, 1]])) == 1
        a = np.ones((3, 3), dtype=int)
        a[0, 0] = 0
        assert count_possible_sneak_paths(a) == 4

    @settings(max_examples=60, deadline=None)
    @given(a=binary_matrix)
    def test_matches_brute_force(self, a):
        assert count_possible_sneak_paths(a) == brute_path_count(a)


class TestReadArray:
    def test_noiseless_levels(self):
        p = ChannelParams(**PAPER, sigma=0.0)
        a = np.array([[1, 0], [0, 0]])
        e = np.array([[0, 1], [0, 0]])
        r = read_array(a, e, p, np.random.default_rng(1))
        assert r[0, 0] == 100.0
        assert r[0, 1] == 200.0
        assert r[1, 0] == 1000.0

    def test_noiseless_values_are_three_level(self):
        p = ChannelParams(**PAPER, sigma=0.0, p_f=0.5)
        rng = np.random.default_rng(0)
        a = (rng.random((8, 8)) < 0.5).astype(int)
        fails = (rng.random((8, 8)) < 0.5).astype(int)
        r = read_array(a, compute_sneak_mask(a, fails), p, rng)
        assert set(np.unique(r)) <= {100.0, 200.0, 1000.0}

    def test_noise_is_seed_deterministic(self):
        p = ChannelParams(**PAPER, sigma=25.0)
        a = np.ones((4, 4), dtype=int)
        e = np.zeros_like(a)
        def read(seed):
            return read_array(a, e, p, np.random.default_rng(seed))

        assert np.array_equal(read(9), read(9))
        assert not np.array_equal(read(9), read(10))

    def test_dimension_mismatch(self):
        p = ChannelParams(**PAPER, sigma=25.0)
        with pytest.raises(ValueError, match="sneak mask dimensions differ"):
            read_array(np.zeros((2, 2), dtype=int), np.zeros((3, 3), dtype=int), p,
                       np.random.default_rng(1))


class TestRandomArray:
    def test_degenerate(self):
        rng = np.random.default_rng(1)
        assert random_array(4, 0.0, rng).sum() == 0
        assert random_array(4, 1.0, rng).sum() == 16

    @pytest.mark.parametrize("q", [-0.1, 1.5])
    def test_rejects_q_outside_unit_interval(self, q):
        with pytest.raises(ValueError, match="q must lie"):
            random_array(4, q, np.random.default_rng(1))

    def test_mean_weight(self):
        # 10^4 arrays at q = 0.5: mean weight within 3 std-devs of 128.
        weights = [random_array(16, 0.5, derive_rng(3, t, 0)).sum() for t in range(10_000)]
        sd_mean = np.sqrt(256 * 0.25 / 10_000)
        assert abs(np.mean(weights) - 128.0) < 3 * sd_mean
