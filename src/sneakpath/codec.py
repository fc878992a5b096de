"""Guided-scrambling constrained code for sneak-path suppression.

Encoding a sub-array: append ``l`` augmentation bits to the user bits,
scramble each of the 2**l augmented candidates with a feedback register
scrambler (division by g(x) over GF(2)), and keep the candidate that
scores best under the selection criterion.  The default criterion picks
the candidate with the minimum number of possible sneak paths; a
minimum-weight criterion is kept as the in-repo baseline.

g(x) is stored once, as the descending tuple of its exponents on
``CodecConfig.poly``: ``(4, 1, 0)`` is x^4 + x + 1.  The augmentation
bits sit in the trailing positions of the matrix, but the scrambler
consumes the matrix in reverse row-major order so that the augmentation
bits enter the register first and perturb the entire candidate rather
than only its own tail.  That scan order lives inside one cached pair of
GF(2) matrices per (g, tile size), :func:`_matrices`, so :func:`scramble`
and :func:`descramble` are one matmul each over one M x M tile or a
``(..., M, M)`` stack of them.

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
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class Criterion(enum.Enum):
    MNSP = "mnsp"
    MIN_WEIGHT = "min_weight"


# Tiles of at most this many cells are scored by lookup in a table over all
# their codes (65,536 entries at m = 4); larger tiles are scored from row words.
CODE_CELLS = 16

# Most candidate cells, 2**l * m^2 per tile and 2**l * n^2 per array (the encoder
# scores an array's tiles together), so that no encoder temporary exceeds 8 MiB.
CANDIDATE_CELLS = 1 << 20

# Primitive polynomials used when a config gives only the redundancy l.
DEFAULT_POLYS = {
    4: (4, 1, 0),
    6: (6, 1, 0),
    8: (8, 4, 3, 2, 0),
}


@dataclass(frozen=True)
class CodecConfig:
    m: int
    l: int
    poly: tuple[int, ...]  # exponents of g(x), descending: (4, 1, 0) is x^4 + x + 1
    criterion: Criterion = Criterion.MNSP

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("sub-array side must be >= 2")
        if not 1 <= self.l <= self.m * self.m - 1:
            raise ValueError("redundancy l must lie in 1..m^2-1")
        if self.m > 64:
            raise ValueError("sub-array side must be <= 64 (one 64-bit word per row)")
        if (1 << self.l) * self.m * self.m > CANDIDATE_CELLS:
            raise ValueError(f"2**l * m^2 = {(1 << self.l) * self.m * self.m} candidate cells "
                             f"per tile exceed the encoder's budget of {CANDIDATE_CELLS}")
        poly = self.poly
        if poly != tuple(sorted(set(poly), reverse=True)):
            raise ValueError("g(x) exponents must be a tuple of distinct descending integers")
        if not poly or poly[-1] < 0:
            raise ValueError("g(x) exponents must be nonempty and nonnegative")
        if poly[-1] != 0:
            raise ValueError("g(x) needs a nonzero constant term")
        if poly[0] < 1:
            raise ValueError("g(x) must have positive degree")

    @classmethod
    def make(cls, m: int, l: int, poly=None, criterion: Criterion = Criterion.MNSP) -> "CodecConfig":
        """Build from g(x)'s integer exponents in any order; ``None`` takes l's default g(x)."""
        if poly is None:
            if l not in DEFAULT_POLYS:
                raise ValueError(f"no default polynomial for l={l}; pass one explicitly")
            poly = DEFAULT_POLYS[l]
        poly = tuple(sorted({operator.index(e) for e in poly}, reverse=True))  # text is a TypeError
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
def _matrices(poly: tuple[int, ...], cells: int) -> tuple[np.ndarray, np.ndarray]:
    """GF(2) matrices of the scrambler (1/g) and the descrambler (times g) on flat tiles.

    The register reads a tile's cells last first, so the delay from input
    cell i to output cell j is i - j: each matrix is lower-triangular
    Toeplitz, ``mat[i, j] = h[i - j]`` for the map's impulse response h.
    """
    delays = [poly[0] - e for e in poly]  # 0, then the feedback taps
    times_g = np.zeros(cells, dtype=np.int64)
    times_g[[d for d in delays if d < cells]] = 1
    over_g = np.zeros(cells, dtype=np.int64)
    over_g[0] = 1
    for k in range(1, cells):
        over_g[k] = sum(over_g[k - d] for d in delays[1:] if d <= k) % 2
    lag = np.subtract.outer(np.arange(cells), np.arange(cells))
    mats = np.tril(over_g[lag]), np.tril(times_g[lag])
    for mat in mats:
        mat.flags.writeable = False  # cached, so shared by every caller
    return mats


def _map_tiles(tiles: np.ndarray, poly: tuple[int, ...], inverse: bool) -> np.ndarray:
    """Multiply each flattened tile by the scrambler or, if ``inverse``, the descrambler matrix."""
    tiles = np.asarray(tiles)
    flat = tiles.reshape(*tiles.shape[:-2], -1)
    return (flat @ _matrices(poly, flat.shape[-1])[inverse] % 2).reshape(tiles.shape)


def scramble(tiles: np.ndarray, poly: tuple[int, ...]) -> np.ndarray:
    """Scramble (divide by g(x)) one M x M tile or a (..., M, M) stack of tiles."""
    return _map_tiles(tiles, poly, inverse=False)


def descramble(tiles: np.ndarray, poly: tuple[int, ...]) -> np.ndarray:
    """Invert :func:`scramble` (multiply by g(x))."""
    return _map_tiles(tiles, poly, inverse=True)


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
    """User bits of an N x N array; rejects an array the code cannot tile or encode."""
    if n % cfg.m != 0:
        raise ValueError("array side must be a multiple of the sub-array side")
    if (n * n) << cfg.l > CANDIDATE_CELLS:
        raise ValueError(f"2**l * n^2 = {(n * n) << cfg.l} candidate cells per array exceed "
                         f"the encoder's budget of {CANDIDATE_CELLS}")
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
