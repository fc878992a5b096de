import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from sneakpath import analysis, codec as gs, mlp
from sneakpath.channel import ChannelParams, compute_sneak_mask, sample_failures, transmit
from sneakpath.rng import STREAM_DATA, STREAM_FAILURES, STREAM_NOISE, derive_rng


class TestQFunction:
    def test_symmetry(self):
        assert analysis.q_function(0.0) == 0.5
        rng = np.random.default_rng(0)
        for x in rng.normal(0, 2, 20):
            assert analysis.q_function(-x) == pytest.approx(1 - analysis.q_function(x))

    def test_against_numerical_integration(self):
        def integrand(u):
            return np.exp(-u * u / 2.0) / np.sqrt(2.0 * np.pi)

        for x in (0.0, 0.5, 1.6448536, 3.0):
            expected, _ = quad(integrand, x, np.inf)
            assert analysis.q_function(x) == pytest.approx(expected, abs=1e-6)
        assert analysis.q_function(1.6448536) == pytest.approx(0.05, abs=1e-6)


def exhaustive_p_nonsp(n, q, p_f):
    """Enumerate every data array and marginalize failures analytically."""
    total = 0.0
    for bits in itertools.product([0, 1], repeat=n * n):
        a = np.array(bits).reshape(n, n)
        w = int(a.sum())
        pa = q**w * (1 - q) ** (n * n - w)
        if pa == 0.0:
            continue
        mean = 0.0
        for i in range(n):
            for j in range(n):
                k = sum(
                    1
                    for u in range(n)
                    for v in range(n)
                    if u != i and v != j and a[i, v] and a[u, v] and a[u, j]
                )
                mean += (1 - p_f) ** k
        total += pa * mean / (n * n)
    return total


def exact_p_nonsp(n, q, p_f):
    """The double sum over the row and column LRS counts (u, v), in exact rationals."""
    q, s, k = Fraction(q), 1 - Fraction(p_f) * Fraction(q), n - 1
    b = [math.comb(k, u) * q**u * (1 - q) ** (k - u) for u in range(n)]
    return sum(b[u] * b[v] * s ** (u * v) for u in range(n) for v in range(n))


class TestPNonsp:
    def test_no_failures_means_probability_one(self):
        for q in (0.0, 0.3, 1.0):
            assert analysis.p_nonsp(ChannelParams(), q) == pytest.approx(1.0)

    def test_certain_failure_dense_array(self):
        assert analysis.p_nonsp(ChannelParams(n=2, p_f=1.0), 1.0) == pytest.approx(0.0)

    @pytest.mark.parametrize("q,p_f", [(0.4, 0.3), (0.7, 0.05), (0.5, 1.0)])
    def test_matches_exhaustive_enumeration(self, q, p_f):
        got = analysis.p_nonsp(ChannelParams(n=3, p_f=p_f), q)
        assert got == pytest.approx(exhaustive_p_nonsp(3, q, p_f), rel=1e-10)

    def test_monotone_in_pf_and_q(self):
        grid = np.linspace(0.0, 1.0, 11)
        vals_pf = [analysis.p_nonsp(ChannelParams(p_f=p), 0.5) for p in grid]
        assert all(b <= a + 1e-12 for a, b in zip(vals_pf, vals_pf[1:]))
        vals_q = [analysis.p_nonsp(ChannelParams(p_f=1e-2), q) for q in grid]
        assert all(b <= a + 1e-12 for a, b in zip(vals_q, vals_q[1:]))

    def test_in_unit_interval(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            params = ChannelParams(p_f=rng.random())
            assert 0.0 <= analysis.p_nonsp(params, rng.random()) <= 1.0

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_matches_exact_double_sum(self, n):
        for q, p_f in itertools.product((0.0, 0.3, 0.5, 1.0), (0.0, 1e-3, 0.3, 1.0)):
            got = analysis.p_nonsp(ChannelParams(n=n, p_f=p_f), q)
            assert got == pytest.approx(float(exact_p_nonsp(n, q, p_f)), rel=1e-12)

    def test_large_n_does_not_overflow(self):
        v = analysis.p_nonsp(ChannelParams(n=64, p_f=1e-3), 0.5)
        assert 0.0 <= v <= 1.0
        # No n x n temporaries: at n = 2,048 one call peaks well under 1 MiB.
        tracemalloc.start()
        try:
            v = analysis.p_nonsp(ChannelParams(n=2048, p_f=1e-3), 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert v == pytest.approx(3.9458350497e-182, rel=1e-9)
        assert peak < 1 << 20

    def test_rejects_q_outside_unit_interval(self):
        params = ChannelParams(sigma=30.0, p_f=1e-3)
        for q in (-0.1, 1.5):
            with pytest.raises(ValueError):
                analysis.p_nonsp(params, q)
            with pytest.raises(ValueError):
                analysis.ber_lower_bound(params, q)
            with pytest.raises(ValueError):
                analysis.simulate_nonsp_fraction(params, q, 10, seed=1)

    def test_simulation_matches_closed_form(self):
        params, cells = ChannelParams(n=4, p_f=0.3), 20_000
        p = analysis.p_nonsp(params, 0.5)
        fraction = analysis.simulate_nonsp_fraction(params, 0.5, cells, seed=4)
        assert abs(fraction - p) < 4 * np.sqrt(p * (1 - p) / cells)
        assert analysis.simulate_nonsp_fraction(params, 0.5, cells, seed=4) == fraction

    def test_simulation_needs_a_cell(self):
        with pytest.raises(ValueError, match="cells must be >= 1"):
            analysis.simulate_nonsp_fraction(ChannelParams(), 0.5, 0, seed=1)


class TestBerLowerBound:
    def test_zero_noise_limit(self):
        assert analysis.ber_lower_bound(ChannelParams(p_f=1e-3), 0.5) == 0.0

    def test_no_failures_reduces_to_single_term(self):
        expected = analysis.q_function((1000.0 - 100.0) / 60.0)
        assert analysis.ber_lower_bound(ChannelParams(sigma=30.0), 0.5) == pytest.approx(
            float(expected))

    def test_monotone_in_sigma(self):
        vals = [
            analysis.ber_lower_bound(ChannelParams(sigma=s, p_f=1e-3), 0.5)
            for s in np.linspace(1.0, 200.0, 40)
        ]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))


class TestEstimateBer:
    def test_clean_channel_zero_ber(self):
        params = ChannelParams(sigma=0.0, p_f=0.0)
        for scn in (
            analysis.Scenario(analysis.MIDPOINT, params),
            analysis.Scenario(analysis.MIDPOINT, params, codec=gs.CodecConfig.make(8, 4)),
        ):
            est = analysis.estimate_ber(scn, 30, 1)
            assert est.ber == 0.0
            assert est.user_errors == 0

    def test_uncoded_noiseless_ber_equals_sneak_mask_fraction(self):
        # At sigma = 0 the midpoint detector errs exactly on the masked cells.
        params = ChannelParams(sigma=0.0, p_f=1e-3)
        scn = analysis.Scenario(analysis.MIDPOINT, params)
        trials, seed = 400, 77
        est = analysis.estimate_ber(scn, trials, seed)
        masked = 0
        for t in range(trials):
            a = (derive_rng(seed, t, STREAM_DATA).random((16, 16)) < 0.5).astype(np.int64)
            f = sample_failures(params, derive_rng(seed, t, STREAM_FAILURES))
            masked += int(compute_sneak_mask(a, f).sum())
        assert est.errors == masked
        assert est.ber == masked / (trials * 256)

    def test_reproducible(self):
        params = ChannelParams(sigma=30.0, p_f=1e-2)
        scn = analysis.Scenario(analysis.MIDPOINT, params)
        a = analysis.estimate_ber(scn, 50, 3)
        b = analysis.estimate_ber(scn, 50, 3)
        assert (a.errors, a.cells, a.ber) == (b.errors, b.cells, b.ber)

    def test_ber_not_below_bound(self):
        params = ChannelParams(sigma=30.0, p_f=1e-3)
        scn = analysis.Scenario(analysis.MIDPOINT, params)
        est = analysis.estimate_ber(scn, 400, 5)
        bound = analysis.bound_for_scenario(scn)
        assert est.ber >= bound - 3 * est.ci95

    def test_invalid_composition(self):
        params = ChannelParams()
        with pytest.raises(ValueError):
            analysis.Scenario(analysis.PIPELINE_DL, params, codec=gs.CodecConfig.make(8, 4))
        with pytest.raises(ValueError):
            analysis.Scenario("nonsense", params)
        with pytest.raises(ValueError):
            analysis.estimate_ber(analysis.Scenario(analysis.MIDPOINT, params), 0, 1)

    def test_pipeline_threshold_needs_a_threshold(self):
        with pytest.raises(ValueError, match="needs a derived threshold"):
            analysis.Scenario(analysis.PIPELINE_THRESHOLD, ChannelParams())

    @pytest.mark.parametrize("q", [-0.1, 1.5])
    def test_scenario_rejects_q_outside_unit_interval(self, q):
        for codec in (None, gs.CodecConfig.make(8, 4)):
            with pytest.raises(ValueError, match="q must lie"):
                analysis.Scenario(analysis.MIDPOINT, ChannelParams(), codec=codec, q=q)

    def test_mlp_all_decides_every_trial_with_the_network(self):
        params = ChannelParams(n=4, sigma=30.0, p_f=1e-2)
        model = mlp.init_model(16, 5, normalizer=1.0 / params.r0)
        scn = analysis.Scenario(analysis.MLP_ALL, params, model=model)
        est = analysis.estimate_ber(scn, 30, 8)
        expected = []
        for trial in range(30):
            _, bits, _, _ = analysis.write_trial(scn, 8, trial)
            _, _, reads = transmit(bits, params, derive_rng(8, trial, STREAM_FAILURES),
                                   derive_rng(8, trial, STREAM_NOISE))
            expected.append(int((mlp.hard_decide(model, reads) != bits).sum()))
        assert est.trial_errors.tolist() == expected
        midpoint = analysis.estimate_ber(analysis.Scenario(analysis.MIDPOINT, params), 30, 8)
        assert est.trial_errors.tolist() != midpoint.trial_errors.tolist()

    @pytest.mark.parametrize("detector", [analysis.MIDPOINT, analysis.MLP_ALL,
                                          analysis.PIPELINE_DL, analysis.PIPELINE_THRESHOLD])
    def test_uncoded_user_counts_are_the_cell_counts(self, detector):
        # Uncoded, the stored cells are the user's bits.
        params = ChannelParams(sigma=30.0, p_f=1e-2)
        model = mlp._init_from_dims([256, 32, 256], 7, normalizer=1.0 / params.r0)
        scn = analysis.Scenario(detector, params, model=model, threshold=170.0)
        est = analysis.estimate_ber(scn, 40, 2)
        assert est.errors > 0
        assert (est.user_errors, est.user_bits) == (est.errors, est.cells)


def estimate(trial_errors, cells_per_trial=64):
    """A BerEstimate with the given per-trial cell errors."""
    return analysis.BerEstimate(
        detector="x", sigma=30.0, p_f=1e-3, rate=1.0, cells=len(trial_errors) * cells_per_trial,
        seed=0, user_errors=0, user_bits=0, trial_errors=np.array(trial_errors))


class TestArrayLevelStatistics:
    # [0, 4, 4, 4] has mean 3 and sample variance (9 + 1 + 1 + 1) / 3 = 4, so its
    # array-level standard error is 2 / sqrt(4) / 64 = 1/64 of a cell; at 64 cells per
    # trial every figure below is exact in binary floating point.
    SPREAD = [0, 4, 4, 4]

    def test_array_level_se_by_hand(self):
        assert analysis.array_level_se(estimate(self.SPREAD)) == 1 / 64
        assert analysis.array_level_se(estimate([2, 2, 2])) == 0.0

    def test_zscore_by_hand(self):
        # BER 12/256 against 4/256, over sqrt((1/64)^2 + 0^2): z = (8/256) / (1/64) = 2.
        a, b = estimate(self.SPREAD), estimate([1, 1, 1, 1])
        assert analysis.le_zscore(a, b) == 2.0
        assert analysis.le_zscore(b, a) == -2.0
        assert not analysis.confidently_le(a, b)
        assert analysis.confidently_le(b, a)

    def test_tie_is_consistent_with_the_claim(self):
        a, b = estimate(self.SPREAD), estimate([3, 3, 3, 3])
        assert analysis.le_zscore(a, b) == 0.0
        assert analysis.confidently_le(a, b) and analysis.confidently_le(b, a)

    @pytest.mark.filterwarnings("error")
    def test_zero_spread_tie_holds_both_ways(self):
        a, b = estimate([0, 0, 0]), estimate([0, 0, 0])
        assert analysis.le_zscore(a, b) == 0.0
        assert analysis.confidently_le(a, b) and analysis.confidently_le(b, a)

    @pytest.mark.filterwarnings("error")
    def test_zero_spread_difference_is_infinite(self):
        a, b = estimate([1, 1, 1]), estimate([0, 0, 0])
        assert analysis.le_zscore(a, b) == np.inf and analysis.le_zscore(b, a) == -np.inf
        assert not analysis.confidently_le(a, b)
        assert analysis.confidently_le(b, a)

    def test_z_at_the_limit_accepts_and_above_rejects(self, monkeypatch):
        a, b = estimate(self.SPREAD), estimate([1, 1, 1, 1])
        monkeypatch.setattr(analysis, "le_zscore", lambda a, b: 1.645)
        assert analysis.confidently_le(a, b)
        monkeypatch.setattr(analysis, "le_zscore", lambda a, b: np.nextafter(1.645, 2.0))
        assert not analysis.confidently_le(a, b)

    def test_fewer_than_two_trials_raise(self):
        one, many = estimate([3]), estimate(self.SPREAD)
        with pytest.raises(ValueError, match="two trials"):
            analysis.array_level_se(one)
        for pair in ((one, many), (many, one)):
            with pytest.raises(ValueError, match="two trials"):
                analysis.le_zscore(*pair)
            with pytest.raises(ValueError, match="two trials"):
                analysis.confidently_le(*pair)


SIM_CODECS = [None, gs.CodecConfig.make(8, 4), gs.CodecConfig.make(4, 8),
              gs.CodecConfig.make(8, 4, criterion=gs.Criterion.MIN_WEIGHT),
              gs.CodecConfig.make(4, 8, criterion=gs.Criterion.MIN_WEIGHT)]


class TestSimulateBlock:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           trials=st.lists(st.integers(0, 10**6), min_size=1, max_size=5),
           codec=st.sampled_from(SIM_CODECS), sigma=st.sampled_from([0.0, 30.0]),
           p_f=st.sampled_from([0.0, 1e-2, 0.2]), q=st.sampled_from([0.2, 0.5]))
    def test_rows_equal_write_trial_then_transmit(self, seed, trials, codec, sigma, p_f, q):
        # Any trials, in any order: a row depends on its trial's streams alone.
        scn = analysis.Scenario(analysis.MIDPOINT, ChannelParams(sigma=sigma, p_f=p_f),
                                codec=codec, q=q)
        payload, bits, weights, tile, reads = analysis.simulate_block(scn, seed, trials)
        assert weights.dtype == np.int64 and bits.dtype == np.int64
        for row, trial in enumerate(trials):
            w_payload, w_bits, w_weights, w_tile = analysis.write_trial(scn, seed, trial)
            _, _, w_reads = transmit(w_bits, scn.params,
                                     derive_rng(seed, trial, STREAM_FAILURES),
                                     derive_rng(seed, trial, STREAM_NOISE))
            assert np.array_equal(payload[row], w_payload)
            assert np.array_equal(bits[row], w_bits)
            assert np.array_equal(weights[row], w_weights)
            assert tile == w_tile
            assert np.array_equal(reads[row], w_reads)
            assert weights[row].sum() == bits[row].sum()

    def test_skip_drops_trials_before_their_data_is_drawn(self, monkeypatch):
        scn = analysis.Scenario(analysis.MIDPOINT, ChannelParams(sigma=30.0, p_f=1e-2))
        full = analysis.simulate_block(scn, 3, range(6))
        drawn = []
        derive = analysis.derive_rngs
        monkeypatch.setattr(analysis, "derive_rngs", lambda seed, trials, stream: drawn.extend(
            (seed, t, stream) for t in trials) or derive(seed, trials, stream))
        odd = analysis.simulate_block(scn, 3, range(6),
                                      skip=lambda fails, noise: np.arange(6) % 2 == 0)
        for whole, part in zip(full[1:], odd[1:]):
            if isinstance(whole, np.ndarray):
                assert np.array_equal(part, whole[1::2])
        assert [t for _, t, stream in drawn if stream == STREAM_DATA] == [1, 3, 5]


class TestWriteBlock:
    def test_degenerate(self):
        for q, ones in ((0.0, 0), (1.0, 16)):
            scn = analysis.Scenario(analysis.MIDPOINT, ChannelParams(n=4), q=q)
            assert analysis.write_block(scn, 1, range(3))[1].sum(axis=(1, 2)).tolist() == [ones] * 3

    def test_mean_weight(self):
        # 10^4 uncoded arrays at q = 0.5: mean weight within 3 std-devs of 128.
        scn = analysis.Scenario(analysis.MIDPOINT, ChannelParams(), q=0.5)
        weights = analysis.write_block(scn, 3, range(10_000))[1].sum(axis=(1, 2))
        sd_mean = np.sqrt(256 * 0.25 / 10_000)
        assert abs(np.mean(weights) - 128.0) < 3 * sd_mean


class TestWriteTrial:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), trial=st.integers(0, 10**6),
           codec=st.sampled_from(SIM_CODECS), q=st.sampled_from([0.2, 0.5, 0.8]))
    def test_weights_are_the_tile_weights_of_the_stored_bits(self, seed, trial, codec, q):
        scn = analysis.Scenario(analysis.MIDPOINT, ChannelParams(), codec=codec, q=q)
        _, bits, weights, tile = analysis.write_trial(scn, seed, trial)
        assert tile == (scn.params.n if codec is None else codec.m)
        assert np.array_equal(weights, gs.tile_weights(bits, tile))
        assert weights.sum() == bits.sum()
        # Row-major tile order, counted tile by tile.
        corners = range(0, scn.params.n, tile)
        assert weights.tolist() == [int(bits[r:r + tile, c:c + tile].sum())
                                    for r in corners for c in corners]

    def test_uncoded_payload_is_the_stored_cells(self):
        scn = analysis.Scenario(analysis.MIDPOINT, ChannelParams())
        payload, bits, _, _ = analysis.write_trial(scn, 4, 9)
        assert payload.shape == (256,) and np.array_equal(payload, bits.reshape(-1))


def test_empirical_one_density_reduced_by_coding():
    # MNSP selection favors sparser tiles, so the density lands below 0.5.
    params = ChannelParams(sigma=30.0, p_f=1e-3)
    scn = analysis.Scenario(analysis.MIDPOINT, params, codec=gs.CodecConfig.make(8, 4))
    q = analysis.empirical_one_density(scn, 0)
    assert 0.3 < q < 0.55
