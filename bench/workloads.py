"""The benchmark's set-up, workloads and output checks.

Each workload drives the package's public functions the way the
``sneakpath`` commands do, with the same calls and seeding:

* ``mc_uncoded`` and ``mc_coded`` replay ``sneakpath evaluate``'s sweep loop
  (``cli.sweep_from``, ``channel_from``, ``codec_from``, ``build_scenario``,
  ``analysis.estimate_ber``, ``cli.estimate_row``), so their CSV rows, and the
  SHA-256 over them, match what ``evaluate`` would write for the same config
  and seed.
* ``train`` replays ``sneakpath train`` then ``sneakpath threshold``.

A job is a fixed amount of work fixed by the seed, so its outputs (CSV rows,
BER, loss) repeat exactly; the runner repeats it to fill the measured time.
"""

from __future__ import annotations

import hashlib
import math
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from sneakpath import analysis, cli, detectors, mlp
from sneakpath import codec as gs
from sneakpath.channel import ChannelParams

# Work per job.  "tiny" only exists so the benchmark's own tests run fast.
SIZES = {
    "full": {
        "setup_samples": 1024, "setup_epochs": 8,
        "mc_uncoded_trials": 3000, "mc_coded_trials": 5500,
        "train_count": 1536, "train_epochs": 40, "train_pool": 256,
    },
    "tiny": {
        "setup_samples": 40, "setup_epochs": 2,
        "mc_uncoded_trials": 20, "mc_coded_trials": 6,
        "train_count": 256, "train_epochs": 30, "train_pool": 16,
    },
}

# The small detectors that set-up trains, with `sneakpath train`'s default
# batch and learning rate.  They are trained at p_f = 1e-2, where
# sneak-path-affected arrays are common, so the affected-only dataset fills
# quickly.  They are far from converged: their quality sets the BER values,
# which only fingerprint the outputs, not the work done.  Their seeds do not
# follow the workload seed: like a detector trained once and then evaluated
# under many seeds, and so that detector quality adds no seed-to-seed spread
# to the BER.
SETUP_PARAMS = ChannelParams(sigma=30.0, p_f=1e-2)
SETUP_DETECTORS = (("uncoded", None, 2024), ("coded", gs.CodecConfig.make(8, 4), 2025))

# Configs in the format of configs/*.cfg, as `sneakpath evaluate` and
# `sneakpath train` / `threshold` would read them.
MC_UNCODED_CFG = {
    "sigma": "30", "q": "0.5", "pf_list": "1e-3, 1e-2",
    "detectors": "midpoint, pipeline_dl, mlp_all",
}
MC_CODED_CFG = {
    "sigma": "30", "pf": "1e-3", "q": "0.5", "criterion": "mnsp",
    "rate_list": "15/16, 8/16", "detectors": "pipeline_threshold, pipeline_dl",
    "threshold": "170",
}
TRAIN_CFG = {
    "sigma": "30", "pf": "1e-3", "q": "0.5", "coded": "true", "m": "8", "l": "4",
    "poly": "4,1,0", "criterion": "mnsp", "filter": mlp.AFFECTED_ONLY,
}


def sha256_lines(lines) -> str:
    """SHA-256 of the lines as a text file, newline-terminated."""
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()


def loss_ok(trace) -> bool:
    """A loss trace is finite and ends below where it started."""
    return all(math.isfinite(x) for x in trace) and trace[-1] < trace[0]


def model_digest(model: mlp.MlpModel) -> str:
    h = hashlib.sha256(np.float64(model.normalizer).tobytes())
    for w, b in zip(model.weights, model.biases):
        h.update(w.tobytes())
        h.update(b.tobytes())
    return h.hexdigest()


@dataclass
class Checks:
    """Named pass/fail output checks; every failure counts in ``failed``."""

    results: list[tuple[str, bool]] = field(default_factory=list)

    def add(self, name: str, ok: bool) -> None:
        self.results.append((name, bool(ok)))

    @property
    def failed(self) -> list[str]:
        return [name for name, ok in self.results if not ok]


# --- set-up --------------------------------------------------------------

@dataclass
class Setup:
    models: dict[str, mlp.MlpModel]
    kept: int
    generate_s: float
    train_s: float
    epochs: int
    loss_traces: dict[str, list[float]]

    @property
    def digest(self) -> str:
        return sha256_lines(model_digest(m) for m in self.models.values())


def train_detectors(size: dict) -> Setup:
    """Train the small seeded detectors that the ``mc_*`` workloads use."""
    n = SETUP_PARAMS.n
    models, traces = {}, {}
    kept = 0
    generate_s = train_s = 0.0
    for tag, codec, s in SETUP_DETECTORS:
        t0 = time.perf_counter()
        dataset = mlp.generate_dataset(SETUP_PARAMS, codec, size["setup_samples"],
                                       mlp.AFFECTED_ONLY, s)
        t1 = time.perf_counter()
        model = mlp.init_model(n * n, s, normalizer=1.0 / SETUP_PARAMS.r0)
        tc = mlp.TrainConfig(batch_size=4 * n * n, epochs=size["setup_epochs"], seed=s)
        traces[tag] = mlp.train(model, dataset, tc)
        t2 = time.perf_counter()
        models[tag] = model
        kept += len(dataset)
        generate_s += t1 - t0
        train_s += t2 - t1
    return Setup(models=models, kept=kept, generate_s=generate_s, train_s=train_s,
                 epochs=len(models) * size["setup_epochs"], loss_traces=traces)


# --- jobs ----------------------------------------------------------------

@dataclass
class JobResult:
    seconds: float
    operations: int            # trials (mc_*) or stages (train) attempted
    rows: list[str]            # lines of the CSV files the commands would write
    errors: tuple              # error counts that must repeat exactly
    forward_calls: int         # MlpModel.inference_calls delta
    values: dict[str, float]   # end-to-end values this job measured
    extra: dict = field(default_factory=dict)

    @property
    def digest(self) -> str:
        return sha256_lines(self.rows)


def evaluate_sweep(cfg: dict, model: mlp.MlpModel, trials: int, seed: int) -> JobResult:
    """``sneakpath evaluate``'s sweep loop, with the model already loaded."""
    detector_set = [tok.strip() for tok in cfg["detectors"].split(",")]
    calls_before = model.inference_calls
    t0 = time.perf_counter()
    axis, values = cli.sweep_from(cfg)
    model_cache = {"model": model}
    rows, scenarios, estimates = [cli.CSV_HEADER], [], []
    for value in values:
        if axis == "rate":
            params = cli.channel_from(cfg)
            codec = cli.codec_from(cfg, rate_token=value)
        else:
            params = cli.channel_from(cfg, sigma=value if axis == "sigma" else None,
                                      p_f=value if axis == "pf" else None)
            codec = cli.codec_from(cfg)
        for detector in detector_set:
            scn = cli.build_scenario(detector, params, codec, cfg, None, model_cache)
            est = analysis.estimate_ber(scn, trials, seed)
            rows.append(cli.estimate_row(est))
            scenarios.append(scn)
            estimates.append(est)
    seconds = time.perf_counter() - t0
    errors = sum(e.errors for e in estimates)
    cells = sum(e.cells for e in estimates)
    # Uncoded points store the user's bits directly, so user BER = cell BER.
    user_errors = sum(e.user_errors if s.codec else e.errors for s, e in zip(scenarios, estimates))
    user_bits = sum(e.user_bits if s.codec else e.cells for s, e in zip(scenarios, estimates))
    done = len(estimates) * trials
    return JobResult(
        seconds=seconds, operations=done, rows=rows,
        errors=tuple((e.errors, e.user_errors) for e in estimates),
        forward_calls=model.inference_calls - calls_before,
        values={"trials_per_s": done / seconds, "cell_ber": errors / cells,
                "user_ber": user_errors / user_bits},
        extra={"trials": trials, "scenarios": scenarios, "estimates": estimates},
    )


def check_sweep(job: JobResult, seed: int, checks: Checks) -> None:
    """Bound check on every point; exact decode of every coded payload."""
    trials = job.extra["trials"]
    decoded = set()
    for scn, est in zip(job.extra["scenarios"], job.extra["estimates"]):
        bound = analysis.bound_for_scenario(scn, seed)
        checks.add(f"ber>=bound-3ci {scn.label} pf={scn.params.p_f:g} rate={scn.rate:g}",
                   est.ber >= bound - 3.0 * est.ci95)
        if scn.codec is None or scn.codec in decoded:
            continue
        decoded.add(scn.codec)
        bad = 0
        for trial in range(trials):
            payload, bits, _, _ = analysis.write_trial(scn, seed, trial)
            bad += not np.array_equal(gs.decode_array(bits, scn.codec), payload)
        checks.results.extend([(f"decode rate={scn.rate:g}", True)] * (trials - bad))
        checks.results.extend([(f"decode rate={scn.rate:g}", False)] * bad)


def train_sequence(seed: int, size: dict, workdir: Path) -> JobResult:
    """``sneakpath train`` then ``sneakpath threshold`` as library calls."""
    cfg = TRAIN_CFG
    t0 = time.perf_counter()
    # cmd_train
    params = cli.channel_from(cfg)
    codec = cli.codec_from(cfg)
    n = params.n
    dataset = mlp.generate_dataset(params, codec, size["train_count"], cfg["filter"], seed,
                                   q=float(cfg["q"]))
    t1 = time.perf_counter()
    model = mlp.init_model(n * n, seed, normalizer=1.0 / params.r0)
    tc = mlp.TrainConfig(batch_size=4 * n * n, learning_rate=1e-3,
                         epochs=size["train_epochs"], seed=seed)
    trace = mlp.train(model, dataset, tc)
    t2 = time.perf_counter()
    path = workdir / "detector.mlp"
    mlp.save(model, path)
    # cmd_threshold
    loaded = mlp.load(path)
    t3 = time.perf_counter()
    pool = mlp.generate_dataset(params, codec, size["train_pool"], mlp.AFFECTED_ONLY,
                                seed + 1, q=float(cfg["q"]))
    t4 = time.perf_counter()
    reads_pool = pool.inputs / loaded.normalizer
    hard_pool = [mlp.hard_decide(loaded, r.reshape(n, n)) for r in reads_pool]
    grid = detectors.default_grid(params, step=1.0)
    result = detectors.derive_threshold([r.reshape(n, n) for r in reads_pool], hard_pool, grid)
    t5 = time.perf_counter()

    labels = [y.reshape(n, n) for y in pool.labels]
    cell_errors = sum(int((h != y).sum()) for h, y in zip(hard_pool, labels))
    user_errors = sum(int((gs.decode_array(h, codec) != gs.decode_array(y, codec)).sum())
                      for h, y in zip(hard_pool, labels))
    user_bits = len(labels) * gs.payload_length(codec, n)
    arrays = len(dataset) + len(pool)
    generate_s = (t1 - t0) + (t4 - t3)
    rows = (["epoch,loss"] + [f"{i},{cli.fmt(loss)}" for i, loss in enumerate(trace)]
            + ["r_th,distance"]
            + [f"{cli.fmt(t)},{int(d)}" for t, d in zip(result.grid, result.distances)])
    return JobResult(
        seconds=t5 - t0, operations=4, rows=rows,
        errors=(cell_errors, user_errors),
        forward_calls=loaded.inference_calls,
        values={
            "trials_per_s": arrays / (t5 - t0),
            "cell_ber": cell_errors / (len(labels) * n * n),
            "user_ber": user_errors / user_bits,
            "dataset_arrays_per_s": arrays / generate_s,
            "train_s_per_epoch": (t2 - t1) / tc.epochs,
            "final_loss": trace[-1],
        },
        extra={"trace": trace, "r_th": result.r_th_spi, "params": params,
               "saved": model_digest(model), "loaded": model_digest(loaded)},
    )


def check_train(job: JobResult, seed: int, checks: Checks) -> None:
    params = job.extra["params"]
    checks.add("train loss finite and decreasing", loss_ok(job.extra["trace"]))
    checks.add("derived threshold in (r1, r0)", params.r1 < job.extra["r_th"] < params.r0)
    checks.add("model reloads unchanged", job.extra["saved"] == job.extra["loaded"])


# --- workloads -----------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    job: Callable[[int, Setup, dict, Path], JobResult]   # (seed, setup, size, workdir)
    check: Callable[[JobResult, int, Checks], None]       # (first job, seed, checks)
    trains: bool = False                                   # the job measures training itself


WORKLOADS = {
    w.name: w for w in (
        Workload("mc_uncoded", MC_UNCODED_CFG,
                 lambda seed, setup, size, _: evaluate_sweep(
                     MC_UNCODED_CFG, setup.models["uncoded"], size["mc_uncoded_trials"], seed),
                 check_sweep),
        Workload("mc_coded", MC_CODED_CFG,
                 lambda seed, setup, size, _: evaluate_sweep(
                     MC_CODED_CFG, setup.models["coded"], size["mc_coded_trials"], seed),
                 check_sweep),
        Workload("train", TRAIN_CFG,
                 lambda seed, _, size, workdir: train_sequence(seed, size, workdir),
                 check_train, trains=True),
    )
}


def temp_workdir(root: Path) -> tempfile.TemporaryDirectory:
    return tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=root)
