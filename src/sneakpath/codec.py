"""Guided-scrambling constrained code for sneak-path suppression.

Encoding a sub-array: append ``l`` augmentation bits to the user bits,
scramble each of the 2**l augmented candidates with a feedback register
scrambler (division by g(x) over GF(2)), and keep the candidate that
scores best under the selection criterion.  The default criterion picks
the candidate with the minimum number of possible sneak paths; a
minimum-weight criterion is kept as the in-repo baseline.

The augmentation bits sit in the trailing positions of the matrix, but
the scrambler consumes the matrix in reverse row-major order so that the
augmentation bits enter the register first and perturb the entire
candidate rather than only its own tail.  That scan order lives in one
helper, :func:`_scan`, behind :func:`scramble` and :func:`descramble`,
which take one M x M tile or a ``(..., M, M)`` stack of them.

:func:`encode_array` handles every tile of an array in one pass.  One
GF(2) matmul scrambles each tile's index-0 word; by linearity each other
candidate is that word xored with a fixed, cached pattern per index, so
candidates are formed and scored in packed integer form and only the
chosen tile per array position is unpacked.  A tile of at most
``CODE_CELLS`` (16) cells packs into one integer code and is scored by
lookup in a table over all its codes; a larger tile packs into one
``uint64`` word per row and is scored from popcounts of row pairs
(:func:`_score_rows`), so tiles up to 64 x 64 are supported.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class Criterion(enum.Enum):
    MNSP = "mnsp"
    MIN_WEIGHT = "min_weight"


@dataclass(frozen=True)
class ScramblerPoly:
    """Scrambler polynomial g(x) over GF(2), stored as register tap delays."""

    degree: int
    taps: tuple[int, ...]

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("degree must be positive")
        taps = tuple(sorted(set(self.taps)))
        object.__setattr__(self, "taps", taps)
        if any(p < 1 or p > self.degree for p in taps):
            raise ValueError("tap delays must lie in 1..degree")
        if self.degree not in taps:
            raise ValueError("g(x) needs a nonzero constant term (delay == degree)")

    @classmethod
    def from_exponents(cls, exponents) -> "ScramblerPoly":
        """Build from the exponents of g(x), e.g. "4,1,0" for x^4 + x + 1."""
        if isinstance(exponents, str):
            exponents = [int(tok) for tok in exponents.replace(" ", "").split(",") if tok]
        exps = sorted(set(int(e) for e in exponents), reverse=True)
        if not exps or any(e < 0 for e in exps):
            raise ValueError("exponent list must be nonempty and nonnegative")
        r = exps[0]
        if 0 not in exps:
            raise ValueError("g(x) needs a nonzero constant term")
        taps = tuple(r - e for e in exps if e != r)
        return cls(degree=r, taps=taps)

    def exponents(self) -> tuple[int, ...]:
        return tuple(sorted({self.degree} | {self.degree - p for p in self.taps}, reverse=True))


# Tiles of at most this many cells are scored by lookup in a table over all
# their codes (65,536 entries at m = 4); larger tiles are scored from row words.
CODE_CELLS = 16

# Primitive polynomials used when a config gives only the redundancy l.
DEFAULT_POLYS = {
    4: "4,1,0",
    6: "6,1,0",
    8: "8,4,3,2,0",
}


@dataclass(frozen=True)
class CodecConfig:
    m: int
    l: int
    poly: ScramblerPoly
    criterion: Criterion = Criterion.MNSP

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("sub-array side must be >= 2")
        if not 1 <= self.l <= self.m * self.m - 1:
            raise ValueError("redundancy l must lie in 1..m^2-1")
        if self.l > 20:
            raise ValueError("l > 20 makes the candidate set unenumerable")
        if self.m > 64:
            raise ValueError("sub-array side must be <= 64 (one 64-bit word per row)")

    @classmethod
    def make(cls, m: int, l: int, poly=None, criterion: Criterion = Criterion.MNSP) -> "CodecConfig":
        if poly is None:
            if l not in DEFAULT_POLYS:
                raise ValueError(f"no default polynomial for l={l}; pass one explicitly")
            poly = ScramblerPoly.from_exponents(DEFAULT_POLYS[l])
        elif not isinstance(poly, ScramblerPoly):
            poly = ScramblerPoly.from_exponents(poly)
        return cls(m=m, l=l, poly=poly, criterion=criterion)

    @property
    def user_bits(self) -> int:
        return self.m * self.m - self.l

    @property
    def rate(self) -> float:
        return (self.m * self.m - self.l) / (self.m * self.m)


@dataclass
class EncodedArray:
    bits: np.ndarray
    weights: np.ndarray  # int64 popcount per tile, row-major tile order
    chosen_indices: np.ndarray  # int64 augmentation index per tile


@lru_cache(maxsize=None)
def _scramble_matrix(taps: tuple[int, ...], length: int) -> np.ndarray:
    """Lower-triangular GF(2) Toeplitz matrix of the scrambler (1/g)."""
    # Impulse response of s[k] = i[k] xor sum_p s[k-p], zero initial state.
    h = np.zeros(length, dtype=np.int64)
    for k in range(length):
        v = 1 if k == 0 else 0
        for p in taps:
            if k - p >= 0:
                v ^= h[k - p]
        h[k] = v
    mat = np.zeros((length, length), dtype=np.int64)
    for m0 in range(length):
        mat[m0, m0:] = h[: length - m0]
    return mat


@lru_cache(maxsize=None)
def _descramble_matrix(taps: tuple[int, ...], length: int) -> np.ndarray:
    """Lower-triangular GF(2) Toeplitz matrix of the descrambler (times g)."""
    mat = np.eye(length, dtype=np.int64)
    for p in taps:
        mat += np.eye(length, k=p, dtype=np.int64)
    return mat % 2


def scramble_stream(streams: np.ndarray, poly: ScramblerPoly) -> np.ndarray:
    """Scramble one stream or a batch of streams (last axis is time)."""
    length = np.asarray(streams).shape[-1]
    return np.asarray(streams) @ _scramble_matrix(poly.taps, length) % 2


def descramble_stream(streams: np.ndarray, poly: ScramblerPoly) -> np.ndarray:
    length = np.asarray(streams).shape[-1]
    return np.asarray(streams) @ _descramble_matrix(poly.taps, length) % 2


def _scan(tiles: np.ndarray, through, poly: ScramblerPoly) -> np.ndarray:
    """Feed (..., M, M) tiles to ``through`` in reverse row-major order and lay the output back."""
    tiles = np.asarray(tiles)
    streams = tiles.reshape(*tiles.shape[:-2], -1)[..., ::-1]
    return through(streams, poly)[..., ::-1].reshape(tiles.shape)


def scramble(tiles: np.ndarray, poly: ScramblerPoly) -> np.ndarray:
    """Scramble one M x M tile or a (..., M, M) stack of tiles."""
    return _scan(tiles, scramble_stream, poly)


def descramble(tiles: np.ndarray, poly: ScramblerPoly) -> np.ndarray:
    """Invert :func:`scramble`."""
    return _scan(tiles, descramble_stream, poly)


def augment(user_bits: np.ndarray, index: int, cfg: CodecConfig) -> np.ndarray:
    """Place user bits row-major, then the l-bit expansion of ``index``."""
    user_bits = np.asarray(user_bits).reshape(-1)
    if user_bits.size != cfg.user_bits:
        raise ValueError(f"expected {cfg.user_bits} user bits, got {user_bits.size}")
    if not 0 <= index < (1 << cfg.l):
        raise ValueError("augmentation index out of range")
    tail = _index_bits(index, cfg.l)
    return np.concatenate([user_bits, tail]).reshape(cfg.m, cfg.m)


def _index_bits(index: int, l: int) -> np.ndarray:
    """MSB-first l-bit expansion, so index 1 -> 0...01 in the last row."""
    return np.array([(index >> (l - 1 - j)) & 1 for j in range(l)], dtype=np.int64)


def _cells_per_word(m: int) -> int:
    """A tile of at most CODE_CELLS cells packs into one word, a larger one into one word per row."""
    return m * m if m * m <= CODE_CELLS else m


def _pack(bits: np.ndarray, m: int) -> np.ndarray:
    """(K, m, m) tile bits -> (K, words) uint64; bit c of a word is the tile's c-th cell."""
    width = _cells_per_word(m)
    shifts = np.arange(width, dtype=np.uint64)
    words = bits.astype(np.uint64).reshape(len(bits), -1, width) << shifts
    return np.bitwise_or.reduce(words, axis=-1)


def _unpack(words: np.ndarray, m: int) -> np.ndarray:
    """Inverse of :func:`_pack`: (K, words) uint64 -> (K, m, m) int64 bits."""
    shifts = np.arange(_cells_per_word(m), dtype=np.uint64)
    return ((words[..., None] >> shifts) & np.uint64(1)).astype(np.int64).reshape(-1, m, m)


@lru_cache(maxsize=None)
def _index_patterns(cfg: CodecConfig) -> np.ndarray:
    """Packed scrambled augmentation pattern of every index, shape (2**l, words).

    By GF(2) linearity the scrambled candidate of index i is the scrambled
    index-0 word xored with the scrambled word holding only index i's bits.
    """
    words = np.zeros((1 << cfg.l, cfg.m * cfg.m), dtype=np.int64)
    words[:, cfg.user_bits:] = [_index_bits(i, cfg.l) for i in range(1 << cfg.l)]
    return _pack(scramble(words.reshape(-1, cfg.m, cfg.m), cfg.poly), cfg.m)


def candidate_set(payload: np.ndarray, cfg: CodecConfig) -> np.ndarray:
    """Packed scrambled candidates of every tile of a payload, shape (T * 2**l, words).

    Row ``t * 2**l + i`` is tile t's candidate for index i, packed as
    :func:`_pack` lays it out.
    """
    user = np.asarray(payload).reshape(-1, cfg.user_bits)
    words = np.zeros((len(user), cfg.m * cfg.m), dtype=np.int64)
    words[:, : cfg.user_bits] = user
    base = _pack(scramble(words.reshape(-1, cfg.m, cfg.m), cfg.poly), cfg.m)
    return (base[:, None, :] ^ _index_patterns(cfg)[None]).reshape(-1, base.shape[1])


def _score_rows(rows: np.ndarray, criterion: Criterion) -> np.ndarray:
    """Score (K, m) packed row words; bit v of row u is cell (u, v).

    The possible-sneak-path count sums, over HRS targets (i, j), the
    rectangles (i, v), (u, v), (u, j) of LRS cells.  Summed over v and j it
    is sum_{i,u} G_iu * (w_u - G_iu), with G_iu = |r_i & r_u| and w_u = |r_u|.
    """
    w = np.bitwise_count(rows)
    if criterion is Criterion.MIN_WEIGHT:
        return w.sum(axis=1, dtype=np.int64)
    # G_iu <= w_u <= 64: the uint8 difference cannot wrap and each product fits int16.
    g = np.bitwise_count(rows[:, :, None] & rows[:, None, :])
    return np.multiply(g, w[:, None, :] - g, dtype=np.int16).sum(axis=(1, 2), dtype=np.int64)


@lru_cache(maxsize=None)
def _code_scores(m: int, criterion: Criterion) -> np.ndarray:
    """Score of every one-word tile code, by :func:`_score_rows` on its rows."""
    codes = np.arange(1 << (m * m))[:, None]
    rows = (codes >> (m * np.arange(m)) & ((1 << m) - 1)).astype(np.uint8)  # m <= 4
    return _score_rows(rows, criterion)


def score_candidates(candidates: np.ndarray, cfg: CodecConfig) -> np.ndarray:
    """Selection score (lower is better) of each packed candidate of :func:`candidate_set`."""
    if cfg.m * cfg.m <= CODE_CELLS:
        return _code_scores(cfg.m, cfg.criterion)[candidates[:, 0]]
    return _score_rows(candidates, cfg.criterion)


def payload_length(cfg: CodecConfig, n: int) -> int:
    if n % cfg.m != 0:
        raise ValueError("array side must be a multiple of the sub-array side")
    return (n // cfg.m) ** 2 * cfg.user_bits


def _tiles(bits: np.ndarray, m: int) -> np.ndarray:
    """(N/m, N/m, m, m) view of an N x N array's row-major M x M tiles."""
    n = bits.shape[0]
    if bits.shape != (n, n) or n % m != 0:
        raise ValueError("array side must be a multiple of the tile side")
    return bits.reshape(n // m, m, n // m, m).swapaxes(1, 2)


def encode_array(payload: np.ndarray, cfg: CodecConfig, n: int) -> EncodedArray:
    """Encode a payload into an N x N array of row-major M x M tiles (one tile if n == m)."""
    payload = np.asarray(payload).reshape(-1)
    if payload.size != payload_length(cfg, n):
        raise ValueError(f"expected payload of {payload_length(cfg, n)} bits, got {payload.size}")
    cands = candidate_set(payload, cfg)
    scores = score_candidates(cands, cfg).reshape(-1, 1 << cfg.l)
    chosen = scores.argmin(axis=1)  # ties: smallest index
    per_tile = cands.reshape(len(scores), 1 << cfg.l, -1)
    tiles = _unpack(per_tile[np.arange(len(scores)), chosen], cfg.m)
    bits = np.zeros((n, n), dtype=np.int64)
    _tiles(bits, cfg.m)[...] = tiles.reshape(n // cfg.m, n // cfg.m, cfg.m, cfg.m)
    return EncodedArray(bits=bits, weights=tiles.sum(axis=(1, 2)), chosen_indices=chosen)


def decode_array(bits: np.ndarray, cfg: CodecConfig) -> np.ndarray:
    """Decode an N x N array, or one M x M sub-array, back into its payload bits."""
    words = descramble(_tiles(np.asarray(bits), cfg.m), cfg.poly).reshape(-1, cfg.m * cfg.m)
    return words[:, : cfg.user_bits].reshape(-1)  # drop each tile's augmentation bits


def tile_weights(bits: np.ndarray, m: int) -> np.ndarray:
    """Per-tile popcounts in row-major tile order (side-information view)."""
    return _tiles(bits, m).sum(axis=(2, 3)).reshape(-1)
