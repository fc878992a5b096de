"""Hard-decision detection and array classification.

The read pipeline first applies a middle-point threshold detector and a
weight comparator: each tile's detected popcount is checked against the
weight recorded at write time.  Arrays whose tiles all match are taken
as sneak-path-free and the threshold decisions stand; mismatching arrays
are re-detected by the one re-detector passed to :func:`pipeline_detect`:
the trained network, or a fixed threshold from :func:`derive_threshold`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams
from .codec import tile_weights


@dataclass(frozen=True)
class ThresholdDetector:
    """Fixed-threshold resistance detector: below threshold reads as '1'."""

    r_th: float

    @classmethod
    def midpoint(cls, params: ChannelParams) -> "ThresholdDetector":
        return cls((params.r0 + params.r1) / 2.0)

    @classmethod
    def checked(cls, r_th: float, params: ChannelParams) -> "ThresholdDetector":
        if not params.r1 < r_th < params.r0:
            warnings.warn(
                f"threshold {r_th} outside the sensible range "
                f"({params.r1}, {params.r0})", stacklevel=2)
        return cls(r_th)

    def detect(self, reads: np.ndarray) -> np.ndarray:
        # Ties (r exactly at threshold) resolve to 0 / HRS.
        return (np.asarray(reads) < self.r_th).astype(np.int64)


@dataclass
class Classification:
    affected: bool
    tile_mismatch: list[bool]

    @property
    def verdict(self) -> str:
        return "SNEAK_PATH_AFFECTED" if self.affected else "SNEAK_PATH_FREE"


def classify_array(detected: np.ndarray, weights: list[int], m: int) -> Classification:
    """Weight-comparator verdict: any tile popcount mismatch flags the array."""
    got = tile_weights(detected, m)
    if len(got) != len(weights):
        raise ValueError(f"expected {len(got)} tile weights, got {len(weights)}")
    flags = [g != w for g, w in zip(got, weights)]
    return Classification(affected=any(flags), tile_mismatch=flags)


@dataclass
class ThresholdSearchResult:
    r_th_spi: float
    grid: np.ndarray
    distances: np.ndarray


def default_grid(params: ChannelParams, step: float = 1.0) -> np.ndarray:
    """Candidate thresholds from r1 to r0 inclusive."""
    return np.arange(params.r1, params.r0 + step / 2.0, step)


def derive_threshold(reads_pool, hard_pool, grid: np.ndarray) -> ThresholdSearchResult:
    """Pick the threshold whose decisions best mimic the network's.

    For each candidate threshold the total Hamming distance between its
    decisions and the network hard decisions is summed over the pool; the
    smallest grid value attaining the minimum wins.
    """
    reads_pool = list(reads_pool)
    hard_pool = list(hard_pool)
    if len(reads_pool) == 0:
        raise ValueError("empty calibration pool")
    if len(reads_pool) != len(hard_pool):
        raise ValueError("reads and decision pools are misaligned")
    r = np.concatenate([np.asarray(x).reshape(-1) for x in reads_pool])
    h = np.concatenate([np.asarray(x).reshape(-1) for x in hard_pool])
    grid = np.asarray(grid, dtype=np.float64)
    # distance(t) = #{h=0 cells with r < t} + #{h=1 cells with r >= t}
    r0_sorted = np.sort(r[h == 0])
    r1_sorted = np.sort(r[h == 1])
    d0 = np.searchsorted(r0_sorted, grid, side="left")
    d1 = r1_sorted.size - np.searchsorted(r1_sorted, grid, side="left")
    distances = d0 + d1
    best = int(np.argmin(distances))  # first minimum = smallest grid value
    return ThresholdSearchResult(r_th_spi=float(grid[best]), grid=grid, distances=distances)


def pipeline_detect(reads: np.ndarray, weights: list[int], m: int, params: ChannelParams,
                    model=None,
                    spi_detector: ThresholdDetector | None = None) -> tuple[np.ndarray, Classification]:
    """Midpoint detect, classify, re-detect if affected with ``model`` xor ``spi_detector``."""
    if (model is None) == (spi_detector is None):
        raise ValueError("pass exactly one re-detector: a trained model or a derived threshold")
    est = ThresholdDetector.midpoint(params).detect(reads)
    cls = classify_array(est, weights, m)
    if not cls.affected:
        return est, cls
    if model is not None:
        from .mlp import hard_decide
        return hard_decide(model, reads), cls
    return spi_detector.detect(reads), cls
