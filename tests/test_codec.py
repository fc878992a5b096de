import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sneakpath import codec as gs
from sneakpath.channel import count_possible_sneak_paths


def reference_scramble(stream, taps):
    """Literal feedback shift register, independent of the library path."""
    out = []
    for k, bit in enumerate(stream):
        v = int(bit)
        for p in taps:
            if k - p >= 0:
                v ^= out[k - p]
        out.append(v)
    return np.array(out, dtype=int)


def reference_descramble(stream, taps):
    out = []
    for k, bit in enumerate(stream):
        v = int(bit)
        for p in taps:
            if k - p >= 0:
                v ^= int(stream[k - p])
        out.append(v)
    return np.array(out, dtype=int)


POLY4 = gs.ScramblerPoly.from_exponents("4,1,0")
CFG = gs.CodecConfig.make(8, 4)

bit_streams = arrays(np.int64, 64, elements=st.integers(0, 1))


class TestScramblerPoly:
    def test_paper_polynomial_taps(self):
        # g(x) = x^4 + x + 1 delays the feedback by 3 and 4.
        assert POLY4.degree == 4
        assert POLY4.taps == (3, 4)
        assert POLY4.exponents() == (4, 1, 0)

    def test_requires_constant_term(self):
        with pytest.raises(ValueError):
            gs.ScramblerPoly.from_exponents("4,1")
        with pytest.raises(ValueError):
            gs.ScramblerPoly(degree=4, taps=(1, 2))

    def test_default_polys_parse(self):
        for l, exps in gs.DEFAULT_POLYS.items():
            poly = gs.ScramblerPoly.from_exponents(exps)
            assert poly.degree == l


class TestSerialize:
    def test_reverse_row_major_2x2(self):
        m = np.array([[1, 2], [3, 4]])
        assert gs.serialize(m).tolist() == [4, 3, 2, 1]

    @settings(max_examples=50, deadline=None)
    @given(m=arrays(np.int64, (8, 8), elements=st.integers(0, 1)))
    def test_bijection(self, m):
        assert np.array_equal(gs.deserialize(gs.serialize(m), 8), m)

    def test_injective_on_random_matrices(self):
        rng = np.random.default_rng(0)
        seen = set()
        for _ in range(10_000):
            m = (rng.random((4, 4)) < 0.5).astype(int)
            seen.add(gs.serialize(m).tobytes())
        rng2 = np.random.default_rng(0)
        distinct = {
            ((rng2.random((4, 4)) < 0.5).astype(int)).tobytes() for _ in range(10_000)
        }
        assert len(seen) == len(distinct)


class TestScramble:
    def test_zero_input_zero_output(self):
        z = np.zeros((8, 8), dtype=int)
        assert gs.scramble(z, POLY4).sum() == 0
        assert gs.descramble(z, POLY4).sum() == 0

    def test_impulse_response(self):
        # Hand-simulated register: 1,0,0,0,0,0,0,0 -> 1,0,0,1,1,0,1,0.
        stream = np.array([1, 0, 0, 0, 0, 0, 0, 0])
        assert gs.scramble_stream(stream, POLY4).tolist() == [1, 0, 0, 1, 1, 0, 1, 0]

    @settings(max_examples=60, deadline=None)
    @given(s=bit_streams)
    def test_matches_reference_register(self, s):
        assert np.array_equal(gs.scramble_stream(s, POLY4), reference_scramble(s, POLY4.taps))
        assert np.array_equal(gs.descramble_stream(s, POLY4), reference_descramble(s, POLY4.taps))

    @settings(max_examples=40, deadline=None)
    @given(a=bit_streams, b=bit_streams)
    def test_linearity(self, a, b):
        left = gs.scramble_stream(a ^ b, POLY4)
        right = gs.scramble_stream(a, POLY4) ^ gs.scramble_stream(b, POLY4)
        assert np.array_equal(left, right)

    @settings(max_examples=60, deadline=None)
    @given(s=arrays(np.int64, (8, 8), elements=st.integers(0, 1)))
    def test_descramble_inverts_scramble(self, s):
        assert np.array_equal(gs.descramble(gs.scramble(s, POLY4), POLY4), s)

    def test_single_error_propagation(self):
        # One flipped stored bit flips |taps| + 1 descrambled positions.
        rng = np.random.default_rng(4)
        s = (rng.random(64) < 0.5).astype(int)
        corrupted = s.copy()
        corrupted[10] ^= 1
        diff = gs.descramble_stream(s, POLY4) ^ gs.descramble_stream(corrupted, POLY4)
        assert diff.sum() == len(POLY4.taps) + 1


class TestAugment:
    def test_index_zero_and_max(self):
        u = np.zeros(CFG.user_bits, dtype=int)
        assert gs.augment(u, 0, CFG).reshape(-1)[-4:].tolist() == [0, 0, 0, 0]
        assert gs.augment(u, 15, CFG).reshape(-1)[-4:].tolist() == [1, 1, 1, 1]
        assert gs.augment(u, 1, CFG).reshape(-1)[-4:].tolist() == [0, 0, 0, 1]

    def test_layout_m8_l4(self):
        # 60 user bits; last row carries t = 4 user bits then 4 index bits.
        assert CFG.user_bits == 60
        assert CFG.t == 4
        u = np.arange(60) % 2
        m = gs.augment(u, 0, CFG)
        assert np.array_equal(m.reshape(-1)[:60], u)

    def test_errors(self):
        with pytest.raises(ValueError):
            gs.augment(np.zeros(10, dtype=int), 0, CFG)
        with pytest.raises(ValueError):
            gs.augment(np.zeros(60, dtype=int), 16, CFG)


class TestCodecConfig:
    def test_rate(self):
        assert CFG.rate == 15 / 16
        assert gs.CodecConfig.make(4, 8).rate == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            gs.CodecConfig.make(4, 16)
        with pytest.raises(ValueError):
            gs.CodecConfig(m=8, l=21, poly=POLY4)


class TestEncode:
    def test_selected_score_is_global_minimum(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            u = (rng.random(60) < 0.5).astype(int)
            enc = gs.encode_array(u, CFG, CFG.m)
            # Independent re-enumeration through the reference register.
            scores = []
            for idx in range(16):
                cand = gs.augment(u, idx, CFG)
                s = reference_scramble(gs.serialize(cand), POLY4.taps)
                scores.append(count_possible_sneak_paths(gs.deserialize(s, 8)))
            sel = count_possible_sneak_paths(enc.bits)
            assert sel == min(scores)
            assert enc.chosen_indices == [scores.index(min(scores))]

    def test_min_weight_criterion(self):
        cfg = gs.CodecConfig.make(8, 4, criterion=gs.Criterion.MIN_WEIGHT)
        rng = np.random.default_rng(2)
        for _ in range(25):
            u = (rng.random(60) < 0.5).astype(int)
            enc = gs.encode_array(u, cfg, cfg.m)
            weights = [
                int(gs.scramble(gs.augment(u, idx, cfg), cfg.poly).sum()) for idx in range(16)
            ]
            assert enc.weights == [min(weights)]

    def test_roundtrip_subarray(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            u = (rng.random(60) < 0.5).astype(int)
            enc = gs.encode_array(u, CFG, CFG.m)
            assert np.array_equal(gs.decode_array(enc.bits, CFG), u)
            assert enc.weights == [enc.bits.sum()]

    def test_mnsp_beats_average(self):
        rng = np.random.default_rng(4)
        sel, avg = [], []
        for _ in range(300):
            u = (rng.random(60) < 0.5).astype(int)
            cands = gs.candidate_set(u, CFG)
            scores = gs.score_candidates(cands, gs.Criterion.MNSP)
            sel.append(scores.min())
            avg.append(scores.mean())
        assert np.mean(sel) < np.mean(avg)


class TestEncodeArray:
    def test_geometry(self):
        assert gs.payload_length(CFG, 16) == 240
        payload = np.zeros(240, dtype=int)
        enc = gs.encode_array(payload, CFG, 16)
        assert enc.bits.shape == (16, 16)
        assert len(enc.weights) == 4

    def test_roundtrip_and_weights(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            payload = (rng.random(240) < 0.5).astype(int)
            enc = gs.encode_array(payload, CFG, 16)
            assert np.array_equal(gs.decode_array(enc.bits, CFG), payload)
            assert sum(enc.weights) == enc.bits.sum()
            assert enc.weights == gs.tile_weights(enc.bits, 8)

    def test_errors(self):
        with pytest.raises(ValueError):
            gs.encode_array(np.zeros(100, dtype=int), CFG, 16)
        with pytest.raises(ValueError):
            gs.payload_length(CFG, 12)

    @settings(max_examples=25, deadline=None)
    @given(payload=arrays(np.int64, 240, elements=st.integers(0, 1)))
    def test_roundtrip_property(self, payload):
        enc = gs.encode_array(payload, CFG, 16)
        assert np.array_equal(gs.decode_array(enc.bits, CFG), payload)
