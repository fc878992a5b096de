import itertools

import numpy as np
import pytest
from scipy.integrate import quad

from sneakpath import analysis, codec as gs
from sneakpath.channel import ChannelParams, compute_sneak_mask, sample_failures
from sneakpath.rng import STREAM_DATA, STREAM_FAILURES, derive_rng
from sneakpath.channel import random_array


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

    def test_large_n_does_not_overflow(self):
        v = analysis.p_nonsp(ChannelParams(n=64, p_f=1e-3), 0.5)
        assert 0.0 <= v <= 1.0

    def test_rejects_q_outside_unit_interval(self):
        params = ChannelParams(sigma=30.0, p_f=1e-3)
        for q in (-0.1, 1.5):
            with pytest.raises(ValueError):
                analysis.p_nonsp(params, q)
            with pytest.raises(ValueError):
                analysis.ber_lower_bound(params, q)
            with pytest.raises(ValueError):
                analysis.simulate_nonsp_fraction(params, q, 10, seed=1)


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
            a = random_array(16, 0.5, derive_rng(seed, t, STREAM_DATA))
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


def test_empirical_one_density_reduced_by_coding():
    # MNSP selection favors sparser tiles, so the density lands below 0.5.
    params = ChannelParams(sigma=30.0, p_f=1e-3)
    scn = analysis.Scenario(analysis.MIDPOINT, params, codec=gs.CodecConfig.make(8, 4))
    q = analysis.empirical_one_density(scn, 0, trials=100)
    assert 0.3 < q < 0.55
