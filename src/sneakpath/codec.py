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

:func:`augment` lays out every candidate word.  :func:`encode_array`
scrambles each tile's ``augment(user, 0)`` in one GF(2) matmul over many
arrays; by linearity candidate i is that word xored with the cached,
scrambled ``augment(zeros, i)``, so candidates are formed and scored in
packed integer form and only each chosen tile is unpacked.  A tile of at
most ``CODE_CELLS`` (16) cells packs into one integer code and is scored
by lookup in a table over all its codes; a larger tile packs into one
``uint64`` word per row and is scored from popcounts of row pairs
(:func:`_score_rows`), so tiles up to 64 x 64 are supported.  An array's
side information has one definition, :func:`tile_weights`; a tile's chosen
index is not kept, as it is the trailing l bits of the descrambled tile.
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

# The encoder's one budget: a tile's 2**l * m^2 candidate cells must fit, and each chunk
# of tiles scores at most this many, so that no encoder temporary exceeds 8 MiB.
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


@lru_cache(maxsize=None)
def _matrices(poly: tuple[int, ...], cells: int) -> tuple[np.ndarray, np.ndarray]:
    """GF(2) matrices of the scrambler (1/g) and the descrambler (times g) on flat tiles.

    The register reads a tile's cells last first, so the delay from input
    cell i to output cell j is i - j: each matrix is lower-triangular
    Toeplitz, ``mat[i, j] = h[i - j]`` for the map's impulse response h.  They are
    float64, exact for sums of at most M^2, so that products run through BLAS.
    """
    delays = [poly[0] - e for e in poly]  # 0, then the feedback taps
    times_g = np.zeros(cells, dtype=np.int64)
    times_g[[d for d in delays if d < cells]] = 1
    over_g = np.zeros(cells, dtype=np.int64)
    over_g[0] = 1
    for k in range(1, cells):
        over_g[k] = sum(over_g[k - d] for d in delays[1:] if d <= k) % 2
    lag = np.subtract.outer(np.arange(cells), np.arange(cells))
    mats = np.tril(over_g[lag]).astype(np.float64), np.tril(times_g[lag]).astype(np.float64)
    for mat in mats:
        mat.flags.writeable = False  # cached, so shared by every caller
    return mats


def _map_tiles(tiles: np.ndarray, poly: tuple[int, ...], inverse: bool) -> np.ndarray:
    """Multiply each flattened tile by the scrambler or, if ``inverse``, the descrambler matrix."""
    tiles = np.asarray(tiles)
    flat = tiles.reshape(*tiles.shape[:-2], -1)
    sums = flat.astype(np.float64) @ _matrices(poly, flat.shape[-1])[inverse]
    return (sums.astype(np.int64) & 1).reshape(tiles.shape)


def scramble(tiles: np.ndarray, poly: tuple[int, ...]) -> np.ndarray:
    """Scramble (divide by g(x)) one M x M tile or a (..., M, M) stack of tiles."""
    return _map_tiles(tiles, poly, inverse=False)


def descramble(tiles: np.ndarray, poly: tuple[int, ...]) -> np.ndarray:
    """Invert :func:`scramble` (multiply by g(x))."""
    return _map_tiles(tiles, poly, inverse=True)


def augment(user_bits: np.ndarray, index: int | np.ndarray, cfg: CodecConfig) -> np.ndarray:
    """(..., M, M) tiles of a (..., user_bits) word stack: user bits row-major, then the
    MSB-first l-bit expansion of ``index`` (one index, or an array of them that broadcasts)."""
    user_bits, index = np.asarray(user_bits), np.asarray(index)
    if user_bits.shape[-1:] != (cfg.user_bits,):
        raise ValueError(f"expected {cfg.user_bits} user bits, got shape {user_bits.shape}")
    if np.any((index < 0) | (index >= 1 << cfg.l)):
        raise ValueError("augmentation index out of range")
    lead = np.broadcast_shapes(user_bits.shape[:-1], index.shape)
    tail = index[..., None] >> np.arange(cfg.l - 1, -1, -1) & 1  # index 1 -> 0...01
    words = [np.broadcast_to(part, (*lead, part.shape[-1])) for part in (user_bits, tail)]
    return np.concatenate(words, axis=-1).reshape(*lead, cfg.m, cfg.m)


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
    """Packed scrambled ``augment(zeros, i)`` of every index i, shape (2**l, words): by
    GF(2) linearity, xored into a tile's scrambled index-0 word it gives candidate i."""
    zeros = np.zeros(cfg.user_bits, dtype=np.int64)
    return _pack(scramble(augment(zeros, np.arange(1 << cfg.l), cfg), cfg.poly), cfg.m)


def candidate_set(payload: np.ndarray, cfg: CodecConfig) -> np.ndarray:
    """Packed scrambled candidates of every tile of a payload, shape (T * 2**l, words).

    Row ``t * 2**l + i`` is tile t's candidate for index i, packed as
    :func:`_pack` lays it out.
    """
    user = np.asarray(payload).reshape(-1, cfg.user_bits)
    base = _pack(scramble(augment(user, 0, cfg), cfg.poly), cfg.m)
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
    """User bits of an N x N array; rejects an array the code cannot tile."""
    if n % cfg.m != 0:
        raise ValueError("array side must be a multiple of the sub-array side")
    return (n // cfg.m) ** 2 * cfg.user_bits


def _tiles(bits: np.ndarray, m: int) -> np.ndarray:
    """(..., T, m, m) row-major M x M tiles of (..., N, N) arrays."""
    n, lead = bits.shape[-1], bits.shape[:-2]
    if bits.ndim < 2 or bits.shape[-2] != n or n % m != 0:
        raise ValueError("array side must be a multiple of the tile side")
    tiles = bits.reshape(*lead, n // m, m, n // m, m).swapaxes(-3, -2)
    return tiles.reshape(*lead, (n // m) ** 2, m, m)


def encode_array(payload: np.ndarray, cfg: CodecConfig, n: int) -> np.ndarray:
    """Encode a payload, or a (..., L) stack of them, into (..., N, N) arrays of row-major
    M x M tiles (one tile if n == m).  Tiles are scored in chunks of at most
    ``CANDIDATE_CELLS`` candidate cells, several arrays' tiles per chunk."""
    payload = np.asarray(payload)
    length = payload_length(cfg, n)
    if payload.shape[-1:] != (length,):
        raise ValueError(f"expected payload of {length} bits, got shape {payload.shape}")
    users = payload.reshape(-1, cfg.user_bits)  # one row per tile, arrays in order
    per_chunk = CANDIDATE_CELLS // (cfg.m * cfg.m << cfg.l)
    tiles = np.empty((len(users), cfg.m, cfg.m), dtype=np.int64)
    for start in range(0, len(users), per_chunk):
        cands = candidate_set(users[start : start + per_chunk], cfg)
        scores = score_candidates(cands, cfg).reshape(-1, 1 << cfg.l)
        pick = scores.argmin(axis=1)  # ties: smallest index
        rows = (np.arange(len(pick)) << cfg.l) + pick  # tile t's candidate i is row t * 2**l + i
        tiles[start : start + per_chunk] = _unpack(cands[rows], cfg.m)
    lead, side = payload.shape[:-1], n // cfg.m
    return tiles.reshape(*lead, side, side, cfg.m, cfg.m).swapaxes(-3, -2).reshape(*lead, n, n)


def decode_array(bits: np.ndarray, cfg: CodecConfig) -> np.ndarray:
    """Decode an N x N array, one M x M sub-array, or a (..., N, N) stack of either,
    back into its (..., L) payload bits."""
    tiles = descramble(_tiles(np.asarray(bits), cfg.m), cfg.poly)
    words = tiles.reshape(*tiles.shape[:-2], cfg.m * cfg.m)[..., : cfg.user_bits]  # drop index bits
    return words.reshape(*words.shape[:-2], words.shape[-2] * cfg.user_bits)


def tile_weights(bits: np.ndarray, m: int) -> np.ndarray:
    """Per-tile popcounts in row-major tile order, (..., T) for (..., N, N) arrays: the
    side information written and checked."""
    return _tiles(bits, m).sum(axis=(-2, -1))
