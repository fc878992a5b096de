"""The block seeder against the one-trial definition.

``rng.derive_rng(seed, t, stream)`` defines a trial's generator;
``rng.derive_rngs(seed, trials, stream)`` must give every trial of a block the
same generator, draw for draw, and reject what SeedSequence rejects.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sneakpath import analysis, mlp
from sneakpath.channel import ChannelParams
from sneakpath.rng import STREAM_DATA, STREAM_FAILURES, STREAM_NOISE, derive_rng, derive_rngs


def assert_same_generators(seed, trials, stream):
    block = derive_rngs(seed, trials, stream)
    assert len(block) == len(trials)
    for trial, rng in zip(trials, block):
        assert rng.bit_generator.state == derive_rng(seed, trial, stream).bit_generator.state
    for trial, rng in zip(trials, derive_rngs(seed, trials, stream)):
        one = derive_rng(seed, trial, stream)
        assert np.array_equal(rng.random(7), one.random(7))
        assert np.array_equal(rng.normal(0.0, 30.0, (5, 5)), one.normal(0.0, 30.0, (5, 5)))


class TestDeriveRngs:
    # Seeds of 2**32 and above, and streams of 2**32 and above, are several entropy words;
    # seed + trial + stream beyond four words runs SeedSequence's extra mixing rounds.
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**128 - 1), stream=st.integers(0, 2**64 - 1),
           trials=st.lists(st.integers(0, 2**32 - 1), max_size=6))
    @example(seed=0, stream=0, trials=[0, 2**32 - 1, 0])
    @example(seed=2**32, stream=STREAM_NOISE, trials=[5, 1, 5])
    @example(seed=2**128 - 1, stream=2**64 - 1, trials=[])
    def test_each_generator_is_derive_rngs(self, seed, stream, trials):
        assert_same_generators(seed, trials, stream)

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**200 + 3])
    def test_pinned_trials_and_seeds(self, seed):
        assert_same_generators(seed, [0, 2**32 - 1, 7], STREAM_FAILURES)

    def test_a_full_block(self):
        # 256 trials is the block simulate_block draws at n = 16.
        assert_same_generators(2024, range(1000, 1256), STREAM_DATA)


SCN = analysis.Scenario(analysis.MIDPOINT, ChannelParams(sigma=30.0, p_f=1e-2))


@pytest.fixture
def no_draws(monkeypatch):
    """Fail the test if simulate_block draws a trial's failures, its first draw."""
    def drawn(*args):
        raise AssertionError("a trial was drawn")

    monkeypatch.setattr(analysis, "sample_failures", drawn)


class TestErrorParity:
    # SeedSequence raises TypeError for a float and ValueError for a negative integer.
    @pytest.mark.parametrize("seed,error", [(1.5, TypeError), (-1, ValueError),
                                            (np.float64(3.0), TypeError)])
    def test_bad_seed(self, no_draws, seed, error):
        with pytest.raises(error):
            derive_rng(seed, 0, STREAM_DATA)
        with pytest.raises(error):
            analysis.simulate_block(SCN, seed, range(3))
        with pytest.raises(error):
            analysis.estimate_ber(SCN, 3, seed)

    @pytest.mark.parametrize("trial,error", [(1.5, TypeError), (-1, ValueError)])
    def test_bad_trial(self, no_draws, trial, error):
        with pytest.raises(error):
            derive_rng(0, trial, STREAM_DATA)
        with pytest.raises(error):
            analysis.simulate_block(SCN, 0, [0, trial])

    def test_trial_beyond_one_word(self, no_draws):
        # derive_rng takes any trial, but estimate_ber never reaches 2**32.
        with pytest.raises(ValueError, match=r"\[0, 2\*\*32\)"):
            analysis.simulate_block(SCN, 0, [2**32])


class TestSeedingCost:
    """Seeding is per block: no SeedSequence is built per trial."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"seed_sequences": 0, "blocks": 0}

        class Counted(np.random.SeedSequence):
            def __init__(self, *args, **kwargs):
                counts["seed_sequences"] += 1
                super().__init__(*args, **kwargs)

        simulate_block = analysis.simulate_block

        def counted_block(*args, **kwargs):
            counts["blocks"] += 1
            return simulate_block(*args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", Counted)
        monkeypatch.setattr(analysis, "simulate_block", counted_block)
        monkeypatch.setattr(mlp, "simulate_block", counted_block)
        return counts

    def test_estimate_ber(self, counts):
        analysis.estimate_ber(SCN, 600, 5)
        assert counts["blocks"] == 3
        assert counts["seed_sequences"] <= 3 * counts["blocks"]  # one per stream at most

    def test_generate_dataset(self, counts):
        ds = mlp.generate_dataset(SCN.params, None, 40, mlp.AFFECTED_ONLY, seed=5)
        assert len(ds) == 40 and counts["blocks"] >= 1
        assert counts["seed_sequences"] <= 3 * counts["blocks"]
