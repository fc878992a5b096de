"""Deterministic seed derivation for Monte Carlo trials.

Every experiment owns one master seed.  Each trial derives its own
independent generators from (master seed, trial index, stream tag), so
trials can run in any order, in blocks of any size, or in parallel, and
still reproduce bit-for-bit.  :func:`analysis.simulate_block` draws a
block's trials, one generator per (trial, stream).
"""

from __future__ import annotations

import numpy as np

# Stream tags: one independent random stream per role within a trial.
STREAM_DATA = 0
STREAM_FAILURES = 1
STREAM_NOISE = 2


def derive_rng(master_seed: int, trial: int, stream: int) -> np.random.Generator:
    """Return the generator for one (trial, stream) pair of an experiment."""
    return np.random.default_rng(np.random.SeedSequence([master_seed, trial, stream]))
