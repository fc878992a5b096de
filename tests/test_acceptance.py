"""End-to-end acceptance checks.

Each test exercises one release criterion at full scale and records a
single pass/fail line (printed in the terminal summary).  Statistical
comparisons between detectors use array-level standard errors because
errors within one stored array are correlated.
"""

import math
import time

import numpy as np
import pytest

from sneakpath import analysis, cli, codec as gs, mlp
from sneakpath.channel import (
    ChannelParams,
    compute_sneak_mask,
    count_possible_sneak_paths,
    read_array,
    sample_failures,
)
from sneakpath.detectors import classify_array, threshold_detect
from sneakpath.rng import STREAM_DATA, STREAM_FAILURES, STREAM_NOISE, derive_rng


def test_c01_codec_roundtrip_at_scale(record):
    cfg = gs.CodecConfig.make(8, 4)
    rng = np.random.default_rng(11)
    t0 = time.time()
    failures = 0
    for _ in range(10_000):
        payload = (rng.random(gs.payload_length(cfg, 16)) < 0.5).astype(np.int64)
        bits = gs.encode_array(payload, cfg, 16)
        if not np.array_equal(gs.decode_array(bits, cfg), payload):
            failures += 1
    elapsed = time.time() - t0
    ok = failures == 0 and elapsed < 60.0
    record(1, ok, f"codec roundtrip, 10^4 payloads, {failures} failures, "
                  f"{elapsed:.1f}s (< 60s)")
    assert ok


def test_c02_selected_candidate_is_optimal(record):
    cfg = gs.CodecConfig.make(8, 4)
    rng = np.random.default_rng(22)
    suboptimal = 0
    for _ in range(1_000):
        user = (rng.random(cfg.user_bits) < 0.5).astype(np.int64)
        chosen = count_possible_sneak_paths(gs.encode_array(user, cfg, cfg.m))
        # Independent re-enumeration: augment and scramble every index.
        best = min(
            count_possible_sneak_paths(gs.scramble(gs.augment(user, i, cfg),
                                                   cfg.poly))
            for i in range(1 << cfg.l)
        )
        if best < chosen:
            suboptimal += 1
    ok = suboptimal == 0
    record(2, ok, f"sneak-path-count selection, 10^3 encodes, "
                  f"{suboptimal} beaten by exhaustive search")
    assert ok


def test_c03_no_sneak_path_probability_oracle(record):
    cells = 10 ** 6
    worst_z = 0.0
    for p_f in (1e-3, 1e-2, 1e-1):
        params = ChannelParams(p_f=p_f)
        frac = analysis.simulate_nonsp_fraction(params, 0.5, cells, seed=33)
        p = analysis.p_nonsp(params, 0.5)
        z = (frac - p) / math.sqrt(p * (1.0 - p) / cells)
        worst_z = max(worst_z, abs(z))
    ok = worst_z <= 3.0
    record(3, ok, f"analytic no-sneak-path probability vs 10^6-cell Monte "
                  f"Carlo, worst |z| = {worst_z:.2f} (<= 3)")
    assert ok


def _finite_difference_grads(model, X, Y, step=1e-6):
    def loss():
        return mlp.bce_loss(mlp._forward_pass(model, X)[-1], Y)

    fd_w = [np.zeros_like(w) for w in model.weights]
    fd_b = [np.zeros_like(b) for b in model.biases]
    for arrs, fds in ((model.weights, fd_w), (model.biases, fd_b)):
        for arr, fd in zip(arrs, fds):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                orig = arr[ix]
                arr[ix] = orig + step
                up = loss()
                arr[ix] = orig - step
                down = loss()
                arr[ix] = orig
                fd[ix] = (up - down) / (2 * step)
    return fd_w, fd_b


def test_c04_gradient_check_full_width_net(record):
    model = mlp._init_from_dims([16, 64, 32, 16], 44, 1.0)
    rng = np.random.default_rng(44)
    X = rng.normal(0.0, 1.0, (6, 16))
    Y = (rng.random((6, 16)) < 0.5).astype(float)
    dw, db, _ = mlp.backward(model, X, Y)
    fd_w, fd_b = _finite_difference_grads(model, X, Y)
    worst = 0.0
    for a, n in zip(dw + db, fd_w + fd_b):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    ok = worst < 1e-5
    record(4, ok, f"backprop vs central differences on 16-64-32-16 net, "
                  f"max relative error {worst:.2e} (< 1e-5)")
    assert ok


def test_c05_monte_carlo_never_beats_lower_bound(record, desk_lab):
    trials = 400
    worst_margin = math.inf
    ok = True
    for sigma in (20.0, 30.0, 40.0):
        for p_f in (1e-3, 1e-2):
            params = ChannelParams(sigma=sigma, p_f=p_f)
            cc = desk_lab.codec
            scenarios = (
                analysis.Scenario(analysis.MIDPOINT, params),
                analysis.Scenario(analysis.MLP_ALL, params,
                                  model=desk_lab.model_unf),
                analysis.Scenario(analysis.PIPELINE_DL, params, codec=cc,
                                  model=desk_lab.model_cc),
                analysis.Scenario(analysis.PIPELINE_THRESHOLD, params, codec=cc,
                                  threshold=desk_lab.threshold),
            )
            for scn in scenarios:
                est = analysis.estimate_ber(scn, trials, 505)
                bound = analysis.bound_for_scenario(scn, 505)
                margin = est.ber - (bound - 3.0 * est.ci95)
                worst_margin = min(worst_margin, margin)
                ok &= margin >= 0.0
    record(5, ok, f"every detector BER >= analytic bound - 3*CI over the "
                  f"(sigma, p_f) grid, worst margin {worst_margin:+.2e}")
    assert ok


def test_c06_detector_ordering_with_confidence(record, desk_lab, desk_estimates):
    e = desk_estimates.estimates
    chain = ("cc_mlp", "nocc_mlp", "unfiltered_mlp", "midpoint")
    links = [analysis.confidently_le(e[a], e[b])
             for a, b in zip(chain, chain[1:])]
    zs = [analysis.le_zscore(e[a], e[b]) for a, b in zip(chain, chain[1:])]
    elapsed = desk_estimates.total_seconds
    ok = all(links) and elapsed < 1800.0
    bers = " <= ".join(f"{name} {e[name].ber:.2e}" for name in chain)
    record(6, ok, f"detector ordering ({bers}; link z "
                  f"{', '.join(f'{z:+.1f}' for z in zs)}, reject above "
                  f"+1.645), {elapsed:.0f}s (< 1800s)")
    assert ok


def test_c07_derived_threshold_parity(record, desk_estimates):
    e = desk_estimates.estimates
    ratio = e["cc_threshold"].ber / e["cc_mlp"].ber
    calls = desk_estimates.call_deltas["cc_threshold"]
    ok = ratio <= 1.5 and calls == 0
    record(7, ok, f"derived threshold vs network detection, BER ratio "
                  f"{ratio:.2f} (<= 1.5), {calls} network calls during its "
                  f"evaluation")
    assert ok


def test_c08_rate_sweep_direction(record, desk_lab):
    trials = 4_000
    sweep = []
    for token in ("15/16", "14/16", "12/16", "10/16", "8/16"):
        m, l = cli.RATE_CONFIGS[token]
        scn = analysis.Scenario(
            analysis.PIPELINE_THRESHOLD, desk_lab.params,
            codec=gs.CodecConfig.make(m, l),
            threshold=desk_lab.threshold, name=token)
        sweep.append(analysis.estimate_ber(scn, trials, 808))
    nonincreasing = all(analysis.confidently_le(b, a)
                        for a, b in zip(sweep, sweep[1:]))
    mw = analysis.estimate_ber(
        analysis.Scenario(
            analysis.PIPELINE_THRESHOLD, desk_lab.params,
            codec=gs.CodecConfig.make(4, 8, criterion=gs.Criterion.MIN_WEIGHT),
            threshold=desk_lab.threshold),
        trials, 808)
    beats_min_weight = analysis.confidently_le(sweep[-1], mw)
    ok = nonincreasing and beats_min_weight
    bers = ", ".join(f"{e.detector} {e.ber:.2e}" for e in sweep)
    record(8, ok, f"BER nonincreasing with rate ({bers}); path-count vs "
                  f"min-weight at 8/16: {sweep[-1].ber:.2e} vs {mw.ber:.2e} "
                  f"(z {analysis.le_zscore(sweep[-1], mw):+.1f}, reject "
                  f"above +1.645)")
    assert ok


def test_c09_weight_comparator_exact_without_noise(record):
    params = ChannelParams(sigma=0.0, p_f=1e-2)
    mismatches = 0
    affected_seen = 0
    for trial in range(10_000):
        data = derive_rng(909, trial, STREAM_DATA).random((params.n, params.n))
        a = (data < 0.5).astype(np.int64)
        fails = sample_failures(params, derive_rng(909, trial, STREAM_FAILURES))
        e = compute_sneak_mask(a, fails)
        reads = read_array(a, e, params, derive_rng(909, trial, STREAM_NOISE))
        verdict = classify_array(threshold_detect(reads, params.midpoint), [int(a.sum())],
                                 params.n).affected
        truth = bool(e.any())
        affected_seen += truth
        mismatches += verdict != truth
    ok = mismatches == 0 and affected_seen > 0
    record(9, ok, f"noise-free weight comparator vs ground truth, 10^4 "
                  f"arrays ({affected_seen} affected), {mismatches} "
                  f"misclassifications")
    assert ok


def test_c10_csv_rows_regenerate_byte_identical(record, tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(
        "pf = 1e-2\nsigma_list = 25, 30\ntrials = 50\nseed = 17\n"
        "detectors = midpoint\nq = 0.5\n")
    out = tmp_path / "ber.csv"
    assert cli.main(["evaluate", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()[1:]
    regenerated = []
    for row in rows:
        fields = row.split(",")
        params = ChannelParams(sigma=float(fields[1]), p_f=float(fields[2]))
        scn = analysis.Scenario(fields[0], params)
        est = analysis.estimate_ber(scn, int(fields[4]), int(fields[9]))
        regenerated.append(cli.estimate_row(est) == row)
    ok = bool(rows) and all(regenerated)
    record(10, ok, f"{sum(regenerated)}/{len(rows)} CSV rows regenerated "
                   f"byte-identically from their recorded seeds")
    assert ok
