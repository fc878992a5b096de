"""The block engine against the per-trial composition it replaced.

The ``reference_*`` functions simulate one trial at a time: ``write_trial`` ->
``channel.transmit`` -> ``threshold_detect`` / ``classify_array`` /
``hard_decide`` -> ``decode_array``.  They are the scalar oracle for
``analysis.estimate_ber`` and ``mlp.generate_dataset``, which simulate trials
in blocks and must give the same numbers and arrays, in the same order.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sneakpath import analysis, codec as gs, mlp
from sneakpath.channel import ChannelParams, transmit
from sneakpath.detectors import classify_array, threshold_detect
from sneakpath.rng import STREAM_DATA, STREAM_FAILURES, STREAM_NOISE, derive_rng

SIM_CODECS = [None, gs.CodecConfig.make(8, 4), gs.CodecConfig.make(4, 8),
              gs.CodecConfig.make(8, 4, criterion=gs.Criterion.MIN_WEIGHT),
              gs.CodecConfig.make(4, 8, criterion=gs.Criterion.MIN_WEIGHT)]
DETECTORS = [analysis.MIDPOINT, analysis.MLP_ALL, analysis.PIPELINE_DL,
             analysis.PIPELINE_THRESHOLD]
# A narrow untrained network of the detector's width: cheap, and its decisions differ
# from the midpoint's, so a mix-up between arrays shows.
MODEL = mlp._init_from_dims([256, 32, 256], 7, normalizer=1.0 / 1000.0)


def reference_trial(scn, seed, trial):
    """One trial written and read on its own: (payload, bits, weights, tile, reads)."""
    payload, bits, weights, tile = analysis.write_trial(scn, seed, trial)
    _, _, reads = transmit(bits, scn.params, derive_rng(seed, trial, STREAM_FAILURES),
                           derive_rng(seed, trial, STREAM_NOISE))
    return payload, bits, weights, tile, reads


def reference_detect(scn, reads, weights, tile):
    est = threshold_detect(reads, scn.params.midpoint)
    if scn.detector == analysis.MLP_ALL:
        return mlp.hard_decide(scn.model, reads)
    if scn.detector == analysis.MIDPOINT or not classify_array(est, weights, tile):
        return est
    if scn.detector == analysis.PIPELINE_DL:
        return mlp.hard_decide(scn.model, reads)
    return threshold_detect(reads, scn.threshold)


def reference_estimate(scn, trials, seed):
    """(trial_errors, user_errors, user_bits), one trial at a time."""
    trial_errors, user_errors, user_bits = [], 0, 0
    for trial in range(trials):
        payload, bits, weights, tile, reads = reference_trial(scn, seed, trial)
        est = reference_detect(scn, reads, weights, tile)
        trial_errors.append(int((est != bits).sum()))
        if payload is not None:
            user_errors += int((gs.decode_array(est, scn.codec) != payload).sum())
            user_bits += payload.size
    return trial_errors, user_errors, user_bits


def reference_dataset(params, cfg, count, class_filter, seed):
    """(inputs, labels) one attempt at a time, or the starvation message."""
    scn = analysis.Scenario(analysis.MIDPOINT, params, codec=cfg)
    inputs, labels = [], []
    budget = mlp.DATASET_BUDGET * count
    for attempt in range(budget):
        _, bits, weights, tile, reads = reference_trial(scn, seed, attempt)
        est = threshold_detect(reads, params.midpoint)
        if class_filter == mlp.AFFECTED_ONLY and not classify_array(est, weights, tile):
            continue
        inputs.append(reads.reshape(-1) * (1.0 / params.r0))
        labels.append(bits.reshape(-1))
        if len(inputs) == count:
            return np.array(inputs), np.array(labels)
    return (f"only {len(inputs)}/{count} arrays passed the {class_filter} filter "
            f"within {budget} attempts (p_f={params.p_f})")


class TestEstimateBer:
    # 256 trials of a 16 x 16 array fill one block: these counts end inside, on and
    # just past a block boundary.
    @pytest.mark.parametrize("trials", [1, 255, 256, 257, 513])
    @pytest.mark.parametrize("detector", DETECTORS)
    @settings(max_examples=3, deadline=None)
    @given(codec=st.sampled_from(SIM_CODECS), seed=st.integers(0, 2**32 - 1),
           p_f=st.sampled_from([1e-3, 1e-2, 0.2]))
    def test_errors_equal_the_per_trial_reference(self, trials, detector, codec, seed, p_f):
        scn = analysis.Scenario(detector, ChannelParams(sigma=30.0, p_f=p_f), codec=codec,
                                model=MODEL, threshold=170.0)
        est = analysis.estimate_ber(scn, trials, seed)
        got = est.trial_errors.tolist(), est.user_errors, est.user_bits
        assert got == reference_estimate(scn, trials, seed)

    def test_block_memory_is_bounded_by_cells_not_trials(self):
        # At n = 128 a block holds 4 trials; a 256-trial block peaked above 200 MB.
        scn = analysis.Scenario(analysis.MIDPOINT, ChannelParams(n=128, sigma=30.0, p_f=1e-3))
        tracemalloc.start()
        try:
            est = analysis.estimate_ber(scn, 300, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert est.trial_errors.tolist() == reference_estimate(scn, 300, 4)[0]


class TestGenerateDataset:
    # Budgets of 200 * count attempts (200, 400, 600) and 3 * count are no multiple of
    # the 256-attempt block; sigma = 150 moves some reads past the midpoint.
    @settings(max_examples=30, deadline=None)
    @given(count=st.sampled_from([1, 2, 3]), budget=st.sampled_from([3, 200]),
           class_filter=st.sampled_from([mlp.ALL, mlp.AFFECTED_ONLY]),
           codec=st.sampled_from(SIM_CODECS), sigma=st.sampled_from([30.0, 150.0]),
           p_f=st.sampled_from([0.0, 1e-3, 1e-2]), seed=st.integers(0, 2**32 - 1))
    def test_same_arrays_in_the_same_order(self, count, budget, class_filter, codec, sigma,
                                           p_f, seed):
        params = ChannelParams(sigma=sigma, p_f=p_f)
        with mock.patch.object(mlp, "DATASET_BUDGET", budget):
            expected = reference_dataset(params, codec, count, class_filter, seed)
            if isinstance(expected, str):
                with pytest.raises(mlp.FilterStarvationError) as starved:
                    mlp.generate_dataset(params, codec, count, class_filter, seed)
                assert str(starved.value) == expected
            else:
                ds = mlp.generate_dataset(params, codec, count, class_filter, seed)
                assert np.array_equal(ds.inputs, expected[0])
                assert np.array_equal(ds.labels, expected[1])

    @pytest.mark.parametrize("z,kept", [(np.nextafter(450.0, 0.0), True), (449.0, False)])
    def test_an_attempt_is_skipped_only_if_no_read_can_cross(self, monkeypatch, z, kept):
        # |z| < 450 = (r0 - r1) / 2 in both cases, but 100 + nextafter(450, 0) rounds to
        # 550.0, the midpoint: that LRS read detects as HRS and the array is flagged.
        params = ChannelParams(n=4, sigma=30.0, p_f=0.0)
        assert abs(z) < (params.r0 - params.r1) / 2
        assert (params.r1 + z == params.midpoint) == kept
        streams = []

        class Draws:
            """Every trial's generators: all-LRS data, no failure, noise z on cell (0, 0)."""

            def __init__(self, stream):
                streams.append(stream)

            def random(self, size):
                return np.full(size, 0.25)  # below q = 0.5, above p_f = 0

            def normal(self, loc, scale, size):
                noise = np.zeros(size)
                noise[0, 0] = z
                return noise

        monkeypatch.setattr(analysis, "derive_rng", lambda seed, trial, stream: Draws(stream))
        if kept:
            ds = mlp.generate_dataset(params, None, 1, mlp.AFFECTED_ONLY, seed=0)
            assert ds.labels.tolist() == [[1] * 16]
            assert ds.inputs[0, 0] == params.midpoint * (1.0 / params.r0)
        else:
            with pytest.raises(mlp.FilterStarvationError, match="only 0/1"):
                mlp.generate_dataset(params, None, 1, mlp.AFFECTED_ONLY, seed=0)
        assert (STREAM_DATA in streams) == kept  # a skipped attempt draws no data
