"""Analytic reference curves and the Monte Carlo BER harness.

The no-sneak-path probability sums, over the counts (u, v) of LRS cells
sharing the target's row and column, the chance that none of the u*v
candidate rectangles has an LRS diagonal cell with a failed selector.
It feeds a two-term lower bound on BER: unaffected cells fail like a
midpoint detector in Gaussian noise, affected cells like a detector
separating the parasitic HRS level from LRS.

The harness simulates trials in blocks of at most ``BLOCK_CELLS`` cells
(:func:`simulate_block`); trial t's draws depend on (seed, t) alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import codec as gs
# transmit and classify_array stay bound for bench/test_bench.py's tracer test.
from .channel import (ChannelParams, compute_sneak_mask, random_array,  # noqa: F401
                      read_levels, sample_failures, transmit)
from .detectors import classify_array, pipeline_detect, threshold_detect  # noqa: F401
from .rng import STREAM_DATA, STREAM_FAILURES, STREAM_NOISE, derive_rng


def q_function(x):
    """Standard Gaussian tail probability Q(x)."""
    # Imported on use: scipy.special adds ~25 MB of RSS to every process that loads it.
    from scipy.special import erfc

    return 0.5 * erfc(np.asarray(x, dtype=np.float64) / np.sqrt(2.0))


def p_nonsp(params: ChannelParams, q: float) -> float:
    """Probability that a cell has no active sneak-path configuration at '1'-density q."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    from scipy.special import gammaln, logsumexp, xlogy

    k = params.n - 1
    u = np.arange(k + 1)
    log_binom = gammaln(k + 1) - gammaln(u + 1) - gammaln(k - u + 1)
    log_q = xlogy(u, q) + xlogy(k - u, 1.0 - q)
    log_marg = log_binom + log_q  # log C(k,u) q^u (1-q)^(k-u), per axis
    uv = np.outer(u, u)
    log_surv = xlogy(uv, 1.0 - params.p_f * q)
    total = logsumexp(log_marg[:, None] + log_marg[None, :] + log_surv)
    return float(np.clip(np.exp(total), 0.0, 1.0))


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


@dataclass
class Scenario:
    """One detector + channel + (optional) code composition to simulate."""

    detector: str
    params: ChannelParams
    codec: gs.CodecConfig | None = None
    q: float = 0.5
    model: object = None
    threshold: float | None = None  # ohms; pipeline_threshold's re-detection threshold
    name: str | None = None

    def __post_init__(self):
        if self.detector not in (MIDPOINT, MLP_ALL, PIPELINE_DL, PIPELINE_THRESHOLD):
            raise ValueError(f"unknown detector {self.detector!r}")
        if self.detector in (MLP_ALL, PIPELINE_DL) and self.model is None:
            raise ValueError(f"{self.detector} needs a trained model")
        if self.detector == PIPELINE_THRESHOLD and self.threshold is None:
            raise ValueError("pipeline_threshold needs a derived threshold")
        t, p = self.threshold, self.params
        if t is not None and not p.r1 < t < p.r0:
            raise ValueError(f"threshold {t} outside ({p.r1}, {p.r0})")
        if not 0.0 <= self.q <= 1.0:
            raise ValueError("q must lie in [0, 1]")
        if self.codec is not None:
            gs.payload_length(self.codec, self.params.n)  # rejects an untileable or oversized array

    @property
    def rate(self) -> float:
        return 1.0 if self.codec is None else self.codec.rate

    @property
    def label(self) -> str:
        return self.name if self.name is not None else self.detector


@dataclass
class BerEstimate:
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
        """Half-width of the normal-approximation 95% interval on the cell BER."""
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
    """Row i is ``draw(rng)`` on the ``stream`` generator of trial ``trials[i]``."""
    rows = [draw(derive_rng(master_seed, int(t), stream)) for t in trials]
    return np.array(rows).reshape(len(rows), *shape)  # the shape holds for no trials too


def write_block(scn: Scenario, master_seed: int, trials):
    """Stacked (payload or None, bits, tile_weights(bits, tile), tile) of ``trials``."""
    n, cfg = scn.params.n, scn.codec
    if cfg is None:
        bits = _stack(master_seed, trials, STREAM_DATA, partial(random_array, n, scn.q), (n, n))
        bits = bits.astype(np.int64)  # int64 already, unless there are no trials
        return None, bits, gs.tile_weights(bits, n), n
    length = gs.payload_length(cfg, n)
    payload = _stack(master_seed, trials, STREAM_DATA, lambda rng: rng.random(length) < scn.q,
                     (length,)).astype(np.int64)
    bits = gs.encode_array(payload, cfg, n).bits
    return payload, bits, gs.tile_weights(bits, cfg.m), cfg.m


def write_trial(scn: Scenario, master_seed: int, trial: int):
    """One trial's row of :func:`write_block`."""
    payload, bits, weights, tile = write_block(scn, master_seed, [trial])
    return None if payload is None else payload[0], bits[0], weights[0], tile


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
    redetect = (partial(threshold_detect, r_th=scn.threshold) if scn.detector == PIPELINE_THRESHOLD
                else partial(hard_decide, scn.model))
    user_errors = user_bits = 0
    trial_errors = np.zeros(trials, dtype=np.int64)
    for block in trial_blocks(trials, scn.params.n):
        payload, bits, weights, tile, reads = simulate_block(scn, master_seed, block)
        if scn.detector == MIDPOINT:
            est = threshold_detect(reads, scn.params.midpoint)
        elif scn.detector == MLP_ALL:
            est = np.array([redetect(r) for r in reads])  # the network sees one array per call
        else:
            est = pipeline_detect(reads, weights, tile, scn.params, redetect)
        trial_errors[block.start : block.stop] = (est != bits).sum(axis=(-2, -1))
        if payload is not None:
            user_errors += int((gs.decode_array(est, scn.codec) != payload).sum())
            user_bits += payload.size
    return BerEstimate(
        detector=scn.label, sigma=scn.params.sigma, p_f=scn.params.p_f, rate=scn.rate,
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
