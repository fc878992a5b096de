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
candidate rather than only its own tail.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .channel import count_possible_sneak_paths


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
    def t(self) -> int:
        """User bits remaining in the last matrix row."""
        return (self.m * self.m - self.l) % self.m

    @property
    def rate(self) -> float:
        return (self.m * self.m - self.l) / (self.m * self.m)


@dataclass
class EncodedArray:
    bits: np.ndarray
    weights: list[int] = field(default_factory=list)
    chosen_indices: list[int] = field(default_factory=list)


def serialize(sub: np.ndarray) -> np.ndarray:
    """Matrix -> scrambler input stream (reverse row-major scan)."""
    sub = np.asarray(sub)
    return sub.reshape(-1)[::-1].copy()


def deserialize(stream: np.ndarray, m: int) -> np.ndarray:
    """Inverse of :func:`serialize`."""
    stream = np.asarray(stream)
    if stream.size != m * m:
        raise ValueError("stream length does not match matrix size")
    return stream[::-1].reshape(m, m).copy()


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


def scramble(candidate: np.ndarray, poly: ScramblerPoly) -> np.ndarray:
    """Scramble an M x M candidate matrix."""
    m = candidate.shape[0]
    return deserialize(scramble_stream(serialize(candidate), poly), m)


def descramble(s: np.ndarray, poly: ScramblerPoly) -> np.ndarray:
    """Invert :func:`scramble`."""
    m = s.shape[0]
    return deserialize(descramble_stream(serialize(s), poly), m)


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


@lru_cache(maxsize=None)
def _candidate_deltas(cfg: CodecConfig) -> tuple[np.ndarray, np.ndarray]:
    """Scrambled contribution of each augmentation bit, plus the index table.

    By GF(2) linearity every scrambled candidate is the scrambled zero-index
    candidate xored with a subset of these per-bit patterns, so one matmul
    expands the whole selection set.
    """
    n_bits = cfg.m * cfg.m
    deltas = np.zeros((cfg.l, n_bits), dtype=np.int64)
    for j in range(cfg.l):
        impulse = np.zeros(n_bits, dtype=np.int64)
        impulse[cfg.user_bits + j] = 1  # row-major position of augmentation bit j
        deltas[j] = scramble_stream(serialize(impulse.reshape(cfg.m, cfg.m)), cfg.poly)
    index_table = np.array([_index_bits(i, cfg.l) for i in range(1 << cfg.l)], dtype=np.int64)
    return deltas, index_table


def candidate_set(user_bits: np.ndarray, cfg: CodecConfig) -> np.ndarray:
    """All 2**l scrambled candidates for one user word, shape (2**l, m, m)."""
    base = scramble_stream(serialize(augment(user_bits, 0, cfg)), cfg.poly)
    deltas, index_table = _candidate_deltas(cfg)
    streams = (base[None, :] + index_table @ deltas) % 2
    return streams[:, ::-1].reshape(-1, cfg.m, cfg.m)


def score_candidates(candidates: np.ndarray, criterion: Criterion) -> np.ndarray:
    """Selection score per candidate (lower is better)."""
    c = candidates
    if criterion is Criterion.MIN_WEIGHT:
        return c.sum(axis=(1, 2))
    # Possible-sneak-path count; u == i / v == j terms vanish at HRS targets.
    paths = np.matmul(np.matmul(c, c.transpose(0, 2, 1)), c)
    return (paths * (1 - c)).sum(axis=(1, 2))


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
    out = EncodedArray(bits=np.zeros((n, n), dtype=np.int64))
    tiles = _tiles(out.bits, cfg.m)  # writes through to out.bits
    for t, user in enumerate(payload.reshape(-1, cfg.user_bits)):
        cands = candidate_set(user, cfg)
        chosen = int(np.argmin(score_candidates(cands, cfg.criterion)))  # ties: smallest index
        tiles[divmod(t, len(tiles))] = cands[chosen]
        out.weights.append(int(cands[chosen].sum()))
        out.chosen_indices.append(chosen)
    return out


def decode_array(bits: np.ndarray, cfg: CodecConfig) -> np.ndarray:
    """Decode an N x N array, or one M x M sub-array, back into its payload bits."""
    streams = _tiles(np.asarray(bits), cfg.m).reshape(-1, cfg.m * cfg.m)
    # Reverse scan in, reverse scan out, then drop each tile's augmentation bits.
    user = descramble_stream(streams[:, ::-1], cfg.poly)[:, ::-1]
    return user[:, : cfg.user_bits].reshape(-1)


def tile_weights(bits: np.ndarray, m: int) -> list[int]:
    """Per-tile popcounts in row-major tile order (side-information view)."""
    return _tiles(bits, m).sum(axis=(2, 3)).reshape(-1).tolist()
