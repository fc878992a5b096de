"""Hard-decision detection and array classification.

A threshold is a float in ohms; :func:`threshold_detect` applies one.  The
read pipeline detects at ``ChannelParams.midpoint`` and compares each
tile's detected popcount with the ``codec.tile_weights`` written beside
the array.  A matching array keeps those decisions; the mismatching ones go,
in one call, to the re-detector passed to :func:`pipeline_detect`: the
trained network, or :func:`threshold_detect` at :func:`derive_threshold`'s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams
from .codec import tile_weights


def threshold_detect(reads: np.ndarray, r_th: float) -> np.ndarray:
    """Hard decisions at one threshold: a read below ``r_th`` is '1'; a tie is '0' (HRS)."""
    return (np.asarray(reads) < r_th).astype(np.int64)


def flag_arrays(detected: np.ndarray, weights, m: int) -> np.ndarray:
    """Weight-comparator verdict per array of a stack: any tile popcount mismatch flags it."""
    got = tile_weights(detected, m)
    weights = np.asarray(weights)
    if got.shape != weights.shape:
        raise ValueError(f"expected tile weights of shape {got.shape}, got {weights.shape}")
    return (got != weights).any(axis=-1)


def classify_array(detected: np.ndarray, weights, m: int) -> bool:
    """:func:`flag_arrays`' verdict on one array: True if it is flagged as affected."""
    return bool(flag_arrays(detected, weights, m))


@dataclass
class ThresholdSearchResult:
    r_th_spi: float
    grid: np.ndarray
    distances: np.ndarray


def default_grid(params: ChannelParams, step: float = 1.0) -> np.ndarray:
    """Candidate thresholds from r1 in steps of ``step``, strictly between r1 and r0,
    the range :class:`analysis.Scenario` accepts."""
    grid = np.arange(params.r1, params.r0, step)
    grid = grid[(grid > params.r1) & (grid < params.r0)]
    if grid.size == 0:
        raise ValueError(f"empty threshold grid: no {step:g}-ohm step lies strictly between "
                         f"r1 = {params.r1:g} and r0 = {params.r0:g}")
    return grid


def derive_threshold(reads_pool, hard_pool, grid: np.ndarray) -> ThresholdSearchResult:
    """Pick the threshold whose decisions best mimic the network's.

    For each candidate threshold the total Hamming distance between its
    decisions and the network hard decisions is summed over the pool; the
    smallest grid value attaining the minimum wins.
    """
    r, h = np.ravel(reads_pool), np.ravel(hard_pool)
    if r.size == 0:
        raise ValueError("empty calibration pool")
    if r.size != h.size:
        raise ValueError("reads and decision pools are misaligned")
    grid = np.asarray(grid, dtype=np.float64)
    if grid.size == 0:
        raise ValueError("empty threshold grid")
    # distance(t) = #{h=0 cells with r < t} + #{h=1 cells with r >= t}
    r0_sorted = np.sort(r[h == 0])
    r1_sorted = np.sort(r[h == 1])
    d0 = np.searchsorted(r0_sorted, grid, side="left")
    d1 = r1_sorted.size - np.searchsorted(r1_sorted, grid, side="left")
    distances = d0 + d1
    best = int(np.argmin(distances))  # first minimum = smallest grid value
    return ThresholdSearchResult(r_th_spi=float(grid[best]), grid=grid, distances=distances)


def pipeline_detect(reads: np.ndarray, weights, m: int, params: ChannelParams,
                    redetect) -> np.ndarray:
    """Midpoint detect and classify one array or a (..., N, N) stack, then re-detect the
    flagged arrays in one call, ``redetect(reads[flagged])``; none flagged, no call."""
    est = threshold_detect(reads, params.midpoint)
    flagged = flag_arrays(est, weights, m)
    if flagged.any():
        est[flagged] = redetect(reads[flagged])
    return est
