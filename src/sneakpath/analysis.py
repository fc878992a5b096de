"""Analytic reference curves and the Monte Carlo BER harness.

The no-sneak-path probability is the chance that none of the u*v candidate
rectangles through a cell has an LRS diagonal cell with a failed selector,
where u and v count the LRS cells sharing its row and column.  With b the
Binomial(n-1, q) pmf and s = 1 - p_f*q, it is sum_u sum_v b(u) b(v) s^(uv);
the binomial generating function sums out v, leaving one sum over u:
sum_u b(u) (1 - q + q s^u)^(n-1).  It feeds a two-term lower bound on BER:
unaffected cells fail like a midpoint detector in Gaussian noise, affected
cells like a detector separating the parasitic HRS level from LRS.

The harness simulates trials in blocks of at most ``BLOCK_CELLS`` cells
(:func:`simulate_block`); trial t's draws depend on (seed, t) alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import codec as gs
# transmit, classify_array and derive_rng stay bound for bench/test_bench.py's tracer test.
from .channel import (ChannelParams, compute_sneak_mask, read_levels,  # noqa: F401
                      sample_failures, transmit)
from .detectors import classify_array, pipeline_detect, threshold_detect  # noqa: F401
from .rng import STREAM_DATA, STREAM_FAILURES, STREAM_NOISE, derive_rng, derive_rngs  # noqa: F401


def q_function(x: float) -> float:
    """Standard Gaussian tail probability Q(x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def p_nonsp(params: ChannelParams, q: float) -> float:
    """Probability that a cell has no active sneak-path configuration at '1'-density q."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    k = params.n - 1
    b = np.ones(1)  # after k convolutions, b[u] = C(k, u) q^u (1-q)^(k-u)
    for _ in range(k):
        b = np.convolve(b, (1.0 - q, q))
    s = 1.0 - params.p_f * q
    return float(np.clip(b @ (1.0 - q + q * s ** np.arange(k + 1)) ** k, 0.0, 1.0))


def simulate_nonsp_fraction(params: ChannelParams, q: float, cells: int, seed: int) -> float:
    """Monte Carlo estimate of the no-active-sneak-path probability.

    Samples one target cell per independently drawn array so the returned
    fraction is a mean of i.i.d. indicators; cells inside a single array
    are correlated, which would invalidate a plain binomial error bar.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    if cells < 1:
        raise ValueError("cells must be >= 1")
    rng = np.random.default_rng(seed)
    n, batch = params.n, 20000  # arrays drawn per vectorized batch
    clear = 0
    done = 0
    while done < cells:
        m = min(batch, cells - done)
        a = rng.random((m, n, n)) < q
        fails = rng.random((m, n, n)) < params.p_f
        # Active configurations for the corner target: an LRS cell in its row,
        # one in its column, and a failed LRS cell on the opposite corner.
        diag = a[:, 1:, 1:] & fails[:, 1:, 1:]
        counts = np.einsum("bv,buv,bu->b", a[:, 0, 1:], diag, a[:, 1:, 0])
        clear += int((counts == 0).sum())
        done += m
    return clear / cells


def ber_lower_bound(params: ChannelParams, q: float) -> float:
    """Two-level Gaussian-tail lower bound on detected-cell BER."""
    p = p_nonsp(params, q)  # also rejects q outside [0, 1]
    if params.sigma == 0.0:
        return 0.0
    return float(p * q_function((params.r0 - params.r1) / (2.0 * params.sigma))
                 + (1.0 - p) * q_function((params.r0_sp - params.r1) / (2.0 * params.sigma)))


# --- Monte Carlo harness -------------------------------------------------

MIDPOINT = "midpoint"          # plain middle-point threshold on every array
MLP_ALL = "mlp_all"            # network detection on every array
PIPELINE_DL = "pipeline_dl"    # classify, re-detect affected arrays with the net
PIPELINE_THRESHOLD = "pipeline_threshold"  # re-detect with the derived threshold
NETWORK_DETECTORS = (MLP_ALL, PIPELINE_DL)  # the detectors that run the trained network


@dataclass
class Scenario:
    """One detector + channel + (optional) code composition to simulate."""

    detector: str
    params: ChannelParams
    codec: gs.CodecConfig | None = None
    q: float = 0.5
    model: object = None
    threshold: float | None = None  # ohms; pipeline_threshold's re-detection threshold

    def __post_init__(self):
        if self.detector not in (MIDPOINT, MLP_ALL, PIPELINE_DL, PIPELINE_THRESHOLD):
            raise ValueError(f"unknown detector {self.detector!r}")
        if self.detector in NETWORK_DETECTORS and self.model is None:
            raise ValueError(f"{self.detector} needs a trained model")
        if self.detector == PIPELINE_THRESHOLD and self.threshold is None:
            raise ValueError("pipeline_threshold needs a derived threshold")
        t, p = self.threshold, self.params
        if t is not None and not p.r1 < t < p.r0:
            raise ValueError(f"threshold {t} outside ({p.r1}, {p.r0})")
        if not 0.0 <= self.q <= 1.0:
            raise ValueError("q must lie in [0, 1]")
        if self.codec is not None:
            gs.payload_length(self.codec, self.params.n)  # rejects an array the code cannot tile

    @property
    def rate(self) -> float:
        return 1.0 if self.codec is None else self.codec.rate

    @property
    def label(self) -> str:
        return self.detector  # kept for bench/workloads.py


@dataclass
class BerEstimate:
    """Counts of one run.  ``user_errors`` and ``user_bits`` count decoded user bits; uncoded,
    the stored cells are the user's bits, so they equal ``errors`` and ``cells``."""

    detector: str
    sigma: float
    p_f: float
    rate: float
    cells: int
    seed: int
    user_errors: int
    user_bits: int
    trial_errors: np.ndarray  # cell errors of each trial, in trial order

    @property
    def trials(self) -> int:
        return len(self.trial_errors)

    @property
    def errors(self) -> int:
        return int(self.trial_errors.sum())

    @property
    def ber(self) -> float:
        return self.errors / self.cells

    @property
    def ci95(self) -> float:
        """Per-cell binomial half-width of the normal-approximation 95% interval on the BER.

        Cells in one array are correlated, so this understates the array-level interval,
        ``1.96 * array_level_se(est)``: with pipeline_threshold at 170 ohm, 2,000 trials
        and seed 1, that is 1.75x (4x4/l=8) to 3.73x (8x8/l=4 at sigma = 50) wider.  The
        acceptance comparisons use :func:`array_level_se`."""
        p = self.ber
        return 1.96 * np.sqrt(max(p * (1.0 - p), 1.0 / self.cells) / self.cells)


def array_level_se(est: BerEstimate) -> float:
    """Standard error of the BER treating whole arrays as the sample unit.

    Errors within one array are correlated (a single failed selector can
    flip several cells), so the per-cell binomial error bar understates
    the true spread; the across-trial variance does not.
    """
    if est.trials < 2:
        raise ValueError("array-level error needs at least two trials")
    cells_per_trial = est.cells / est.trials
    return float(np.std(est.trial_errors, ddof=1)
                 / cells_per_trial / np.sqrt(est.trials))


def le_zscore(a: BerEstimate, b: BerEstimate) -> float:
    """Standardized BER difference (a - b) using array-level errors."""
    se = np.hypot(array_level_se(a), array_level_se(b))
    diff = a.ber - b.ber
    if se == 0.0:  # no spread on either side: a tie scores 0, any other difference +-inf
        return float(np.sign(diff) * np.inf) if diff else 0.0
    return float(diff / se)


def confidently_le(a: BerEstimate, b: BerEstimate) -> bool:
    """One-sided 95% test of the claim BER(a) <= BER(b).

    The claim includes equality, so it is rejected only when ``a``
    measures higher than ``b`` by more than 1.645 standard errors of the
    difference; a statistical tie is consistent with the claim.
    """
    return le_zscore(a, b) <= 1.645


# Trials are simulated in blocks of at most this many cells (256 trials at n = 16),
# so NumPy's per-call cost is paid per block while temporaries stay small.
BLOCK_CELLS = 1 << 16


def trial_blocks(trials: int, n: int):
    """Consecutive ranges covering ``range(trials)``, each of at most BLOCK_CELLS cells."""
    size = max(1, BLOCK_CELLS // (n * n))
    return (range(start, min(start + size, trials)) for start in range(0, trials, size))


def _stack(master_seed: int, trials, stream: int, draw, shape) -> np.ndarray:
    """Row i is ``draw(rng)`` on the ``stream`` generator of trial ``trials[i]``, which
    :func:`rng.derive_rngs` seeds for the whole block in one pass."""
    rows = [draw(rng) for rng in derive_rngs(master_seed, trials, stream)]
    return np.array(rows).reshape(len(rows), *shape)  # the shape holds for no trials too


def write_block(scn: Scenario, master_seed: int, trials):
    """Stacked (payload, bits, tile_weights(bits, tile), tile) of ``trials``.  Each trial's
    payload is ``rng.random(length) < q``; uncoded, it is the n^2 cells the bits reshape."""
    n, cfg = scn.params.n, scn.codec
    length = n * n if cfg is None else gs.payload_length(cfg, n)
    payload = _stack(master_seed, trials, STREAM_DATA, lambda rng: rng.random(length) < scn.q,
                     (length,)).astype(np.int64)
    bits, tile = ((payload.reshape(-1, n, n), n) if cfg is None
                  else (gs.encode_array(payload, cfg, n), cfg.m))
    return payload, bits, gs.tile_weights(bits, tile), tile


def write_trial(scn: Scenario, master_seed: int, trial: int):
    """One trial's row of :func:`write_block`."""
    payload, bits, weights, tile = write_block(scn, master_seed, [trial])
    return payload[0], bits[0], weights[0], tile


def simulate_block(scn: Scenario, master_seed: int, trials, skip=None):
    """:func:`write_block`'s tuple plus the reads: the one place streams are drawn.

    Trial t draws from ``derive_rng(master_seed, t, stream)`` with :func:`write_trial`'s
    and :func:`channel.transmit`'s calls, whatever its block.  Trials where
    ``skip(fails, noise)`` holds are dropped before their data is drawn."""
    p = scn.params
    fails = _stack(master_seed, trials, STREAM_FAILURES, partial(sample_failures, p), (p.n, p.n))
    noise = _stack(master_seed, trials, STREAM_NOISE,
                   lambda rng: rng.normal(0.0, p.sigma, (p.n, p.n)), (p.n, p.n))
    if skip is not None:
        kept = ~skip(fails, noise)
        trials, fails, noise = np.asarray(trials)[kept], fails[kept], noise[kept]
    payload, bits, weights, tile = write_block(scn, master_seed, trials)
    reads = read_levels(bits, compute_sneak_mask(bits, fails), p) + noise
    return payload, bits, weights, tile, reads


def estimate_ber(scn: Scenario, trials: int, master_seed: int) -> BerEstimate:
    """Run independent encode -> channel -> detect passes and count errors."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    from .mlp import hard_decide
    r_th = scn.params.midpoint if scn.detector == MIDPOINT else scn.threshold
    decide = (partial(hard_decide, scn.model) if scn.detector in NETWORK_DETECTORS
              else partial(threshold_detect, r_th=r_th))
    every_array = scn.detector in (MIDPOINT, MLP_ALL)
    user_errors = user_bits = 0
    trial_errors = np.zeros(trials, dtype=np.int64)
    for block in trial_blocks(trials, scn.params.n):
        payload, bits, weights, tile, reads = simulate_block(scn, master_seed, block)
        est = (decide(reads) if every_array
               else pipeline_detect(reads, weights, tile, scn.params, decide))
        trial_errors[block.start : block.stop] = (est != bits).sum(axis=(-2, -1))
        user = est.reshape(payload.shape) if scn.codec is None else gs.decode_array(est, scn.codec)
        user_errors += int((user != payload).sum())
        user_bits += payload.size
    return BerEstimate(
        detector=scn.detector, sigma=scn.params.sigma, p_f=scn.params.p_f, rate=scn.rate,
        cells=trials * scn.params.n ** 2, seed=master_seed, user_errors=user_errors,
        user_bits=user_bits, trial_errors=trial_errors,
    )


def empirical_one_density(scn: Scenario, master_seed: int) -> float:
    """Post-coding '1'-density of 200 written arrays, used as q when bounding coded scenarios."""
    ones = sum(int(write_block(scn, master_seed, block)[1].sum())
               for block in trial_blocks(200, scn.params.n))
    return ones / (200 * scn.params.n ** 2)


def bound_for_scenario(scn: Scenario, master_seed: int = 0) -> float:
    """Eq.-style lower bound at the scenario's operating point."""
    q = scn.q if scn.codec is None else empirical_one_density(scn, master_seed)
    return ber_lower_bound(scn.params, q)
