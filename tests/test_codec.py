import numpy as np
import pytest
from hypothesis import example, given, settings
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


def reference_tile_scramble(tile, taps):
    """Scramble an M x M tile through the reference register in reverse row-major order."""
    m = len(tile)
    return reference_scramble(np.asarray(tile).reshape(-1)[::-1], taps)[::-1].reshape(m, m)


def reference_tile_descramble(tile, taps):
    """Descramble an M x M tile through the reference register in reverse row-major order."""
    m = len(tile)
    return reference_descramble(np.asarray(tile).reshape(-1)[::-1], taps)[::-1].reshape(m, m)


def reference_encode(payload, cfg, n):
    """Per-tile encoder: score every scrambled candidate matrix, keep the first minimum."""
    tiles, weights, chosen = [], [], []
    for user in np.asarray(payload).reshape(-1, cfg.user_bits):
        cands = [gs.scramble(gs.augment(user, i, cfg), cfg.poly) for i in range(1 << cfg.l)]
        if cfg.criterion is gs.Criterion.MNSP:
            scores = [count_possible_sneak_paths(c) for c in cands]
        else:
            scores = [int(c.sum()) for c in cands]
        best = scores.index(min(scores))
        tiles.append(cands[best])
        weights.append(int(cands[best].sum()))
        chosen.append(best)
    k = n // cfg.m
    bits = np.block([[tiles[r * k + c] for c in range(k)] for r in range(k)])
    return bits, weights, chosen


POLY4 = (4, 1, 0)  # g(x) = x^4 + x + 1
TAPS4 = (3, 4)  # its register feeds back the outputs 3 and 4 steps back
CFG = gs.CodecConfig.make(8, 4)

bit_tiles = arrays(np.int64, (8, 8), elements=st.integers(0, 1))


@st.composite
def polynomials(draw):
    """Exponents of a random g(x) of degree 1 to 10 with a constant term."""
    degree = draw(st.integers(1, 10))
    inner = draw(st.sets(st.integers(1, degree)))
    return tuple(sorted({degree, 0} | inner, reverse=True))


class TestScanOrder:
    def test_last_cell_enters_the_register_first(self):
        # Cell (1, 1) enters the register first: the impulse response 1,0,0,1
        # lands on (1, 1), (1, 0), (0, 1), (0, 0).  Cell (0, 0) enters last.
        tile = np.array([[0, 0], [0, 1]])
        assert gs.scramble(tile, POLY4).tolist() == [[1, 0], [0, 1]]
        assert gs.scramble(np.array([[1, 0], [0, 0]]), POLY4).tolist() == [[1, 0], [0, 0]]

    @settings(max_examples=50, deadline=None)
    @given(tile=bit_tiles)
    def test_scramble_is_reverse_row_major_register(self, tile):
        assert np.array_equal(gs.scramble(tile, POLY4), reference_tile_scramble(tile, TAPS4))

    @settings(max_examples=30, deadline=None)
    @given(stack=arrays(np.int64, (2, 3, 4, 4), elements=st.integers(0, 1)))
    def test_stack_equals_tile_by_tile(self, stack):
        for fn in (gs.scramble, gs.descramble):
            out = fn(stack, POLY4)
            assert out.shape == stack.shape
            for idx in np.ndindex(*stack.shape[:-2]):
                assert np.array_equal(out[idx], fn(stack[idx], POLY4))


class TestScramble:
    def test_zero_input_zero_output(self):
        z = np.zeros((8, 8), dtype=int)
        assert gs.scramble(z, POLY4).sum() == 0
        assert gs.descramble(z, POLY4).sum() == 0

    def test_impulse_response(self):
        # Hand-simulated register: 1,0,0,0,0,0,0,0 -> 1,0,0,1,1,0,1,0.  The impulse sits
        # in the last cell, which enters first, so the response fills the last row leftwards.
        tile = np.zeros((8, 8), dtype=int)
        tile[-1, -1] = 1
        assert gs.scramble(tile, POLY4)[-1, ::-1].tolist() == [1, 0, 0, 1, 1, 0, 1, 0]

    @settings(max_examples=60, deadline=None)
    @given(tile=bit_tiles)
    def test_matches_reference_register(self, tile):
        assert np.array_equal(gs.scramble(tile, POLY4), reference_tile_scramble(tile, TAPS4))
        assert np.array_equal(gs.descramble(tile, POLY4), reference_tile_descramble(tile, TAPS4))

    @settings(max_examples=40, deadline=None)
    @given(a=bit_tiles, b=bit_tiles)
    def test_linearity(self, a, b):
        left = gs.scramble(a ^ b, POLY4)
        right = gs.scramble(a, POLY4) ^ gs.scramble(b, POLY4)
        assert np.array_equal(left, right)

    @settings(max_examples=60, deadline=None)
    @given(s=bit_tiles)
    def test_descramble_inverts_scramble(self, s):
        assert np.array_equal(gs.descramble(gs.scramble(s, POLY4), POLY4), s)

    def test_single_error_propagation(self):
        # One flipped stored bit flips |taps| + 1 descrambled positions.
        rng = np.random.default_rng(4)
        s = (rng.random((8, 8)) < 0.5).astype(int)
        corrupted = s.copy()
        corrupted[6, 5] ^= 1  # the 11th cell to enter the register
        diff = gs.descramble(s, POLY4) ^ gs.descramble(corrupted, POLY4)
        assert diff.sum() == len(TAPS4) + 1

    @settings(max_examples=100, deadline=None)
    @given(poly=polynomials(), m=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
    @example(poly=(10, 3, 0), m=2, seed=0)  # degree beyond the tile's 4 cells
    @example(poly=(9, 0), m=3, seed=1)
    def test_random_polynomial_matches_register(self, poly, m, seed):
        tiles = np.random.default_rng(seed).integers(0, 2, (3, m, m))
        taps = [poly[0] - e for e in poly[1:]]
        out = gs.scramble(tiles, poly)
        for tile, got in zip(tiles, out):
            assert np.array_equal(got, reference_tile_scramble(tile, taps))
        assert np.array_equal(gs.descramble(out, poly), tiles)


class TestAugment:
    def test_index_zero_and_max(self):
        u = np.zeros(CFG.user_bits, dtype=int)
        assert gs.augment(u, 0, CFG).reshape(-1)[-4:].tolist() == [0, 0, 0, 0]
        assert gs.augment(u, 15, CFG).reshape(-1)[-4:].tolist() == [1, 1, 1, 1]
        assert gs.augment(u, 1, CFG).reshape(-1)[-4:].tolist() == [0, 0, 0, 1]

    def test_layout_m8_l4(self):
        # 60 user bits; last row carries t = 4 user bits then 4 index bits.
        assert CFG.user_bits == 60
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

    def test_paper_polynomial_taps(self):
        # g(x) = x^4 + x + 1 delays the feedback by 3 and 4; its exponents in any order,
        # or repeated, give one descending tuple.
        assert CFG.poly == POLY4
        for exps in ((4, 1, 0), (0, 1, 4), [1, 0, 4, 4]):
            assert gs.CodecConfig.make(8, 4, poly=exps).poly == POLY4
        tile = np.random.default_rng(6).integers(0, 2, (8, 8))
        assert np.array_equal(gs.scramble(tile, CFG.poly), reference_tile_scramble(tile, TAPS4))

    def test_requires_constant_term(self):
        with pytest.raises(ValueError, match="constant term"):
            gs.CodecConfig.make(8, 4, poly=[1, 4])
        with pytest.raises(ValueError, match="constant term"):
            gs.CodecConfig(m=8, l=4, poly=(4, 1))

    def test_default_polys_parse(self):
        for l, exps in gs.DEFAULT_POLYS.items():
            poly = gs.CodecConfig.make(4, l).poly
            assert poly == exps and poly[0] == l

    def test_validation(self):
        with pytest.raises(ValueError):
            gs.CodecConfig.make(4, 16)
        with pytest.raises(ValueError):
            gs.CodecConfig(m=8, l=21, poly=POLY4)
        with pytest.raises(ValueError):
            gs.CodecConfig(m=65, l=4, poly=POLY4)
        for bad, message in [((), "nonempty"), ((4, 1, 0, -1), "nonnegative"),
                             ((0,), "positive degree")]:
            with pytest.raises(ValueError, match=message):
                gs.CodecConfig.make(8, 4, poly=bad)
        for text in ("410", "4,1,0"):  # the CLI parses text; its digits are not exponents
            with pytest.raises(TypeError):
                gs.CodecConfig.make(8, 4, poly=text)
        for bad in ((0, 1, 4), (4, 4, 0), [4, 1, 0]):  # only make() sorts and dedups
            with pytest.raises(ValueError, match="descending"):
                gs.CodecConfig(m=8, l=4, poly=bad)

    def test_side_and_redundancy_ranges(self):
        with pytest.raises(ValueError, match="sub-array side must be >= 2"):
            gs.CodecConfig(m=1, l=1, poly=(1, 0))
        for l in (0, 16):
            with pytest.raises(ValueError, match="redundancy l must lie"):
                gs.CodecConfig(m=4, l=l, poly=POLY4)

    def test_candidate_budget(self):
        # Every code in use fits: the rate sweep's, and the encoder tests' largest (16, 8).
        for m, l in [(8, 4), (8, 8), (4, 4), (4, 6), (4, 8), (16, 8)]:
            gs.CodecConfig.make(m, l)
        with pytest.raises(ValueError, match="budget"):
            gs.CodecConfig.make(8, 20, poly=(20, 3, 0))
        assert (1 << 14) * 8 * 8 == gs.CANDIDATE_CELLS
        gs.CodecConfig.make(8, 14, poly=(14, 5, 0))
        with pytest.raises(ValueError, match="budget"):
            gs.CodecConfig.make(8, 15, poly=(15, 1, 0))


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
                scores.append(count_possible_sneak_paths(reference_tile_scramble(cand, TAPS4)))
            sel = count_possible_sneak_paths(enc.bits)
            assert sel == min(scores)
            assert enc.chosen_indices.tolist() == [scores.index(min(scores))]

    def test_min_weight_criterion(self):
        cfg = gs.CodecConfig.make(8, 4, criterion=gs.Criterion.MIN_WEIGHT)
        rng = np.random.default_rng(2)
        for _ in range(25):
            u = (rng.random(60) < 0.5).astype(int)
            enc = gs.encode_array(u, cfg, cfg.m)
            weights = [
                int(gs.scramble(gs.augment(u, idx, cfg), cfg.poly).sum()) for idx in range(16)
            ]
            assert enc.weights.tolist() == [min(weights)]

    def test_roundtrip_subarray(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            u = (rng.random(60) < 0.5).astype(int)
            enc = gs.encode_array(u, CFG, CFG.m)
            assert np.array_equal(gs.decode_array(enc.bits, CFG), u)
            assert enc.weights.tolist() == [enc.bits.sum()]

    def test_mnsp_beats_average(self):
        rng = np.random.default_rng(4)
        sel, avg = [], []
        for _ in range(300):
            u = (rng.random(60) < 0.5).astype(int)
            cands = gs.candidate_set(u, CFG)
            scores = gs.score_candidates(cands, CFG)
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
            assert enc.weights.sum() == enc.bits.sum()
            assert np.array_equal(enc.weights, gs.tile_weights(enc.bits, 8))

    def test_errors(self):
        with pytest.raises(ValueError):
            gs.encode_array(np.zeros(100, dtype=int), CFG, 16)
        with pytest.raises(ValueError):
            gs.payload_length(CFG, 12)

    def test_untileable_array(self):
        for bits in (np.zeros((12, 12), dtype=int), np.zeros((8, 16), dtype=int)):
            with pytest.raises(ValueError, match="multiple of the tile side"):
                gs.decode_array(bits, CFG)
            with pytest.raises(ValueError, match="multiple of the tile side"):
                gs.tile_weights(bits, 8)

    @settings(max_examples=25, deadline=None)
    @given(payload=arrays(np.int64, 240, elements=st.integers(0, 1)))
    def test_roundtrip_property(self, payload):
        enc = gs.encode_array(payload, CFG, 16)
        assert np.array_equal(gs.decode_array(enc.bits, CFG), payload)


# (m, l, n): both scoring paths (one-code tiles up to 4 x 4, row words above),
# one and many tiles per array, and every rate the CLI offers.
ENCODE_CASES = [(2, 1, 16), (2, 3, 12), (3, 4, 12), (4, 4, 16), (4, 6, 12), (4, 8, 16),
                (6, 6, 12), (8, 4, 16), (8, 8, 16), (16, 4, 16), (16, 8, 16)]
EXTRA_POLYS = {1: (1, 0), 3: (3, 1, 0)}


class TestPackedEncoder:
    @pytest.mark.parametrize("criterion", list(gs.Criterion))
    @pytest.mark.parametrize("m,l,n", ENCODE_CASES)
    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_matches_reference_encoder(self, m, l, n, criterion, data):
        cfg = gs.CodecConfig.make(m, l, poly=EXTRA_POLYS.get(l), criterion=criterion)
        density = data.draw(st.sampled_from([0.1, 0.5, 0.9]))
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        payload = (rng.random(gs.payload_length(cfg, n)) < density).astype(np.int64)
        enc = gs.encode_array(payload, cfg, n)
        bits, weights, chosen = reference_encode(payload, cfg, n)
        assert np.array_equal(enc.bits, bits)
        assert enc.weights.dtype == enc.chosen_indices.dtype == np.int64
        assert enc.weights.tolist() == weights
        assert enc.chosen_indices.tolist() == chosen

    @pytest.mark.parametrize("m,l", [(8, 4), (4, 8)])
    def test_one_scoring_call_per_array(self, m, l, monkeypatch):
        cfg = gs.CodecConfig.make(m, l)
        calls = []
        score = gs.score_candidates
        monkeypatch.setattr(gs, "score_candidates",
                            lambda cands, c: calls.append(len(cands)) or score(cands, c))
        gs.encode_array(np.zeros(gs.payload_length(cfg, 16), dtype=np.int64), cfg, 16)
        assert calls == [(16 // m) ** 2 * 2**l]
