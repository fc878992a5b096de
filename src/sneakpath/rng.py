"""Deterministic seed derivation for Monte Carlo trials.

Every experiment owns one master seed.  Each trial derives its own
independent generators from (master seed, trial index, stream tag), so
trials can run in any order, in blocks of any size, or in parallel, and
still reproduce bit-for-bit.  :func:`derive_rng` defines a (trial, stream)
pair's generator; :func:`derive_rngs` gives a block's generators in the same
states from one pass of SeedSequence's hash, and
:func:`analysis.simulate_block` draws every block through it.
"""

from __future__ import annotations

import operator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# Stream tags: one independent random stream per role within a trial.
STREAM_DATA = 0
STREAM_FAILURES = 1
STREAM_NOISE = 2

_M32 = 0xFFFF_FFFF
_MIX_L = 0xCA01F9DD
_NEG_MIX_R = (1 << 32) - 0x4973F715  # mix subtracts 0x4973F715 * y; adding this cannot borrow


def derive_rng(master_seed: int, trial: int, stream: int) -> np.random.Generator:
    """Return the generator for one (trial, stream) pair of an experiment."""
    return np.random.default_rng(np.random.SeedSequence([master_seed, trial, stream]))


def _hash_consts(const: int, mult: int, count: int) -> list[tuple[int, int]]:
    """The (xor, multiply) constants of ``count`` successive ``hashmix`` calls."""
    powers = [const * pow(mult, k, 1 << 32) & _M32 for k in range(count + 1)]
    return list(zip(powers, powers[1:]))


# Entropy fills the pool (4 hashmix calls), the cross-mix hashes each pool word into the
# other three (12), and each entropy word beyond the pool is hashed into all four (4 each);
# generate_state reads 8 words out with a second constant sequence.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_POOL_CONSTS = _hash_consts(_INIT_A, _MULT_A, 16)
_OUT_CONSTS = _hash_consts(0x8B51F9DD, 0x58F38DED, 8)


def _words(value) -> list[int]:
    """SeedSequence's uint32 words of one entropy integer, least significant first."""
    value = operator.index(value)  # a float raises TypeError, as in SeedSequence
    if value < 0:
        raise ValueError(f"seed and stream must be non-negative, got {value}")
    return [value >> shift & _M32 for shift in range(0, max(value.bit_length(), 1), 32)]


class _PCG64Seed(ISeedSequence):
    """Hands PCG64 the words ``SeedSequence.generate_state(4, uint64)`` would give it."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def derive_rngs(master_seed: int, trials, stream: int) -> list[np.random.Generator]:
    """``[derive_rng(master_seed, t, stream) for t in trials]``, hashed in one pass.

    This is NumPy's SeedSequence hash (O'Neill's seed_seq_fe, a pool of four uint32
    words) on Python ints that hold trial i's word in bits 64i .. 64i + 31: a product
    with a 32-bit constant stays in its 64-bit lane, and masking with ``lanes`` drops
    what a right shift brings down from the lane above.  Only the trial's entropy word
    varies, so a trial must lie in [0, 2**32); seed and stream may span several words.
    """
    trials = [operator.index(t) for t in trials]
    if trials and (min(trials) < 0 or max(trials) > _M32):
        raise ValueError("trials must lie in [0, 2**32)")
    seed = _words(master_seed)
    ones = int.from_bytes(b"\1\0\0\0\0\0\0\0" * len(trials), "little")
    lanes = _M32 * ones
    entropy = [w * ones for w in (*seed, 0, *_words(stream))]
    entropy[len(seed)] = int.from_bytes(np.array(trials, "<u8").tobytes(), "little")
    entropy += [0] * (4 - len(entropy))  # short entropy fills the pool with hashed zeros
    consts = (_POOL_CONSTS if len(entropy) == 4
              else _hash_consts(_INIT_A, _MULT_A, 4 * len(entropy)))

    def hashmix(value, xor, mul):
        value = (value ^ xor * ones) * mul & lanes
        return (value ^ value >> 16) & lanes

    pool = [hashmix(word, xor, mul) for word, (xor, mul) in zip(entropy[:4], consts)]
    steps = [(pool, src, dst) for src in range(4) for dst in range(4) if dst != src]
    steps += [(entropy, src, dst) for src in range(4, len(entropy)) for dst in range(4)]
    for (words, src, dst), (xor, mul) in zip(steps, consts[4:]):
        v = hashmix(words[src], xor, mul)
        v = (_MIX_L * pool[dst] & lanes) + (_NEG_MIX_R * v & lanes) & lanes  # mix
        pool[dst] = (v ^ v >> 16) & lanes
    out = [hashmix(word, xor, mul) for word, (xor, mul) in zip(pool + pool, _OUT_CONSTS)]
    # generate_state(4, uint64): word j is uint32 word 2j, plus word 2j + 1 as its high half.
    state = b"".join((lo | hi << 32).to_bytes(8 * len(trials), "little")
                     for lo, hi in zip(out[::2], out[1::2]))
    state = np.frombuffer(state, "<u8").reshape(4, -1).T.astype(np.uint64, order="C")
    return [np.random.Generator(np.random.PCG64(_PCG64Seed(w))) for w in state]
