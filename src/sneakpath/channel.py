"""Crossbar array channel: selector failures, sneak paths, noisy readout.

An N x N crossbar stores one bit per cell: '1' = low-resistance state
(LRS, nominal ``r1``), '0' = high-resistance state (HRS, nominal ``r0``).
Reading an HRS cell (i, j) is corrupted when some rectangle
(i, v), (u, v), (u, j) of LRS cells exists with a failed selector at the
diagonal cell (u, v); the parasitic branch ``r_sp`` then appears in
parallel with ``r0``.  Additive Gaussian noise models everything else.

Every sampling function takes a ``np.random.Generator``; which stream a
trial draws from is decided by :func:`analysis.simulate_trial` alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ChannelParams:
    """Operating point of the crossbar read channel."""

    n: int = 16
    r0: float = 1000.0
    r1: float = 100.0
    r_sp: float = 250.0
    sigma: float = 0.0
    p_f: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, vars(self).values())):
            raise ValueError("channel parameters must be finite")
        if self.n < 2:
            raise ValueError("array side length must be >= 2")
        if not (self.r0 > self.r1 > 0.0):
            raise ValueError("need r0 > r1 > 0")
        if self.r_sp <= 0.0:
            raise ValueError("r_sp must be positive")
        if self.sigma < 0.0:
            raise ValueError("sigma must be nonnegative")
        if not 0.0 <= self.p_f <= 1.0:
            raise ValueError("p_f must lie in [0, 1]")

    @property
    def r0_sp(self) -> float:
        """HRS resistance with an active parasitic branch (r0 || r_sp)."""
        return 1.0 / (1.0 / self.r0 + 1.0 / self.r_sp)


def _check_binary(a: np.ndarray, name: str) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix")
    if not ((a == 0) | (a == 1)).all():
        raise ValueError(f"{name} must be binary")
    return a.astype(np.int64, copy=False)


def random_array(n: int, q: float, rng: np.random.Generator) -> np.ndarray:
    """Sample an n x n data array with i.i.d. Bernoulli(q) entries."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    return (rng.random((n, n)) < q).astype(np.int64)


def sample_failures(params: ChannelParams, rng: np.random.Generator) -> np.ndarray:
    """Sample the selector failure mask, i.i.d. Bernoulli(p_f) per cell."""
    return (rng.random((params.n, params.n)) < params.p_f).astype(np.int64)


def _rectangle_targets(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Count, per HRS cell (i, j), the (u, v) with A[i, v] = G[u, v] = A[u, j] = 1.

    The u == i and v == j terms carry the factor A[i, j] = 0; LRS cells count zero."""
    return (a @ g.T @ a) * (1 - a)


def compute_sneak_mask(a: np.ndarray, fails: np.ndarray) -> np.ndarray:
    """Mark the HRS cells whose readout is sneak-path-affected."""
    a = _check_binary(a, "cell array")
    fails = _check_binary(fails, "failure mask")
    if a.shape != fails.shape:
        raise ValueError("cell array and failure mask dimensions differ")
    return (_rectangle_targets(a, a & fails) > 0).astype(np.int64)  # G: failed LRS cells


def count_possible_sneak_paths(a: np.ndarray) -> int:
    """Total number of possible sneak paths in a stored array.

    A possible path needs only the data pattern: an HRS target with three
    LRS cells at the remaining rectangle corners.  Selector state is
    ignored, so this is the quantity the constrained code minimizes.
    """
    a = _check_binary(a, "cell array")
    return int(_rectangle_targets(a, a).sum())


def read_array(a: np.ndarray, e: np.ndarray, params: ChannelParams,
               rng: np.random.Generator) -> np.ndarray:
    """Measured resistances per Eq-style readout: nominal value plus noise."""
    a = _check_binary(a, "cell array")
    e = _check_binary(e, "sneak mask")
    if a.shape != e.shape:
        raise ValueError("cell array and sneak mask dimensions differ")
    nominal = np.where(a == 1, params.r1, np.where(e == 1, params.r0_sp, params.r0))
    return nominal + rng.normal(0.0, params.sigma, a.shape)


def transmit(a: np.ndarray, params: ChannelParams, fail_rng, noise_rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One full channel use: sample failures, resolve sneak paths, read.

    Returns (failure mask, sneak mask, read array).
    """
    fails = sample_failures(params, fail_rng)
    e = compute_sneak_mask(a, fails)
    return fails, e, read_array(a, e, params, noise_rng)
