"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload mc_coded --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The run trains the small detectors of set-up three times
(``setup_s`` is the median), then repeats the workload's fixed-size job
until ``--seconds`` have passed and reports medians over the repetitions.
The ``mc_*`` jobs train nothing, so between their repetitions the run
repeats set-up's training, and their training metrics are medians over
set-up and those repeats.  With ``--trace 0`` it reports the end-to-end metrics.  With ``--trace 1``
it runs the job untraced and traced in turn and reports the per-layer
metrics, plus the tracing overhead (traced minus untraced job time).

Standard output ends with two JSON lines: ``{"provenance": ...}`` (seed,
workload parameters, git commit, versions, BLAS threads, SHA-256 of the
CSV rows) and the result ``{"correct", "attempted", "failed", "metrics"}``.
Output checks that fail are named on standard error and counted in
``failed``.  Exit codes: 0 ran (see ``correct``), 2 no package source.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 3
# The mc_* jobs train nothing; between their repetitions the runner repeats
# set-up's training for about this share of the job time, so their training
# metrics are medians sampled over the whole run, like the job's own.
PROBE_SHARE = 1 / 3
# One process with one BLAS thread.  A second thread busy-waits between the
# many small BLAS calls and competes for cores on a shared host.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
    "trials_per_s": "1/s",
    "cell_ber": "ratio",
    "user_ber": "ratio",
    "dataset_arrays_per_s": "1/s",
    "train_s_per_epoch": "s",
    "final_loss": "nats",
}

# Exact counts, ratios and the tracing overhead, beside the per-function metrics.
LAYER_COUNTS = {
    "channel.sneak_cells": "count",
    "codec.candidates_scored": "count",
    "detectors.arrays": "count",
    "detectors.flagged": "count",
    "detectors.flag_rate": "ratio",
    "mlp.rows_per_forward": "rows",
    "mlp.dataset_attempts": "count",
    "mlp.dataset_accept_ratio": "ratio",
    "trace.overhead_s": "s",
}


def per_layer_units() -> dict[str, str]:
    from tracer import TRACED  # loads numpy, so only after cap_blas_threads()

    units = {}
    for mod, fn, _ in TRACED:
        units[f"{mod}.{fn}.s"] = "s"
        units[f"{mod}.{fn}.self_s"] = "s"
        units[f"{mod}.{fn}.calls"] = "count"
    units.update(LAYER_COUNTS)
    return units


def cap_blas_threads() -> tuple[int, dict[str, str]]:
    """Set BLAS threads to BLAS_THREADS, at most nproc; call before importing numpy."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(min(BLAS_THREADS, nproc))
    return nproc, {var: os.environ[var] for var in BLAS_THREAD_VARS}


def git_commit(root: Path) -> str:
    """Commit of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def median(values) -> float:
    return float(statistics.median(values))


def run_untraced(workload, seed, setups, size, seconds, workdir, checks):
    from workloads import train_detectors  # loads numpy, so only after cap_blas_threads()

    setup = setups[0][1]
    # Training rates (kept arrays/s, s/epoch) of set-up and of the probes.
    rates = [(s.kept / s.generate_s, s.train_s / s.epochs) for _, s in setups]
    jobs = []
    job_s = probe_s = 0.0
    start = time.perf_counter()
    while not jobs or time.perf_counter() - start < seconds:
        if workload.trains or probe_s >= PROBE_SHARE * job_s:
            jobs.append(workload.job(seed, setup, size, workdir))
            job_s += jobs[-1].seconds
        else:
            t0 = time.perf_counter()
            probe = train_detectors(size)
            probe_s += time.perf_counter() - t0
            checks.add("set-up repeats exactly", probe.digest == setup.digest)
            rates.append((probe.kept / probe.generate_s, probe.train_s / probe.epochs))
    first = jobs[0]
    for job in jobs[1:]:
        checks.add("repeated job gives identical rows and errors",
                   job.digest == first.digest and job.errors == first.errors)
    workload.check(first, seed, checks)

    values = {key: median(job.values[key] for job in jobs) for key in first.values}
    if not workload.trains:
        values["dataset_arrays_per_s"] = median(r[0] for r in rates)
        values["train_s_per_epoch"] = median(r[1] for r in rates)
        values["final_loss"] = statistics.fmean(t[-1] for t in setup.loss_traces.values())
    values["setup_s"] = median(t for t, _ in setups)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return jobs, values, len(rates) - len(setups)


def run_traced(workload, seed, setups, size, seconds, workdir, checks):
    from tracer import Tracer  # loads numpy, so only after cap_blas_threads()

    setup = setups[0][1]
    pairs = []
    start = time.perf_counter()
    while not pairs or time.perf_counter() - start < seconds:
        plain = workload.job(seed, setup, size, workdir)
        with Tracer() as tracer:
            traced = workload.job(seed, setup, size, workdir)
        pairs.append((plain, traced, tracer))
    first_tracer = pairs[0][2]
    for plain, traced, tracer in pairs:
        checks.add("traced job reproduces untraced rows and error counts",
                   traced.digest == plain.digest and traced.errors == plain.errors)
        checks.add("mlp.forward wrapper calls match MlpModel.inference_calls",
                   tracer.stats["mlp.forward"].calls == traced.forward_calls)
        checks.add("traced counts repeat exactly",
                   tracer.counts == first_tracer.counts
                   and all(s.calls == first_tracer.stats[k].calls
                           for k, s in tracer.stats.items()))
    workload.check(pairs[0][0], seed, checks)

    values = {}
    for name, stats in first_tracer.stats.items():
        values[f"{name}.s"] = median(t.stats[name].total_s for _, _, t in pairs)
        values[f"{name}.self_s"] = median(t.stats[name].self_s for _, _, t in pairs)
        values[f"{name}.calls"] = stats.calls
    counts = first_tracer.counts
    for key in ("channel.sneak_cells", "codec.candidates_scored", "detectors.arrays",
                "detectors.flagged", "mlp.dataset_attempts"):
        values[key] = counts[key]
    values["mlp.forward.calls"] = pairs[0][1].forward_calls
    values["detectors.flag_rate"] = counts["detectors.flagged"] / max(counts["detectors.arrays"], 1)
    values["mlp.rows_per_forward"] = counts["mlp.forward.rows"] / max(values["mlp.forward.calls"], 1)
    values["mlp.dataset_accept_ratio"] = (counts["mlp.dataset_kept"]
                                          / max(counts["mlp.dataset_attempts"], 1))
    values["trace.overhead_s"] = median(t.seconds - p.seconds for p, t, _ in pairs)
    return [job for plain, traced, _ in pairs for job in (plain, traced)], values, 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every job to a few arrays (for the benchmark's tests)")
    args = parser.parse_args(argv)

    if not (SRC / "sneakpath" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    nproc, blas_threads = cap_blas_threads()
    sys.path.insert(0, str(SRC))

    import numpy as np
    import scipy

    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(wl.WORKLOADS)}")
    workload = wl.WORKLOADS[args.workload]
    size = wl.SIZES["tiny" if args.tiny else "full"]
    checks = wl.Checks()

    setups = []
    for _ in range(1 if args.trace else SETUP_REPS):
        t0 = time.perf_counter()
        setup = wl.train_detectors(size)
        setups.append((time.perf_counter() - t0, setup))
    checks.add("set-up repeats exactly", len({s.digest for _, s in setups}) == 1)
    for tag, trace in setups[0][1].loss_traces.items():
        checks.add(f"set-up {tag} loss finite and decreasing", wl.loss_ok(trace))

    run = run_traced if args.trace else run_untraced
    with wl.temp_workdir(ROOT) as workdir:
        jobs, values, probes = run(workload, args.seed, setups, size, args.seconds,
                                   Path(workdir), checks)

    attempted = len(setups) + sum(job.operations for job in jobs) + len(checks.results)
    failed = len(checks.failed)
    for name in checks.failed:
        print(f"check failed: {name}", file=sys.stderr)
    units = per_layer_units() if args.trace else dict(END_TO_END)
    if not args.trace:
        values["ok_share"] = (attempted - failed) / attempted
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    provenance = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "config": workload.config, "size": size,
        "setup": {"p_f": wl.SETUP_PARAMS.p_f, "sigma": wl.SETUP_PARAMS.sigma,
                  "seeds": {tag: seed for tag, _, seed in wl.SETUP_DETECTORS},
                  "reps": len(setups), "probes": probes},
        "job_seconds": [job.seconds for job in jobs], "git_commit": git_commit(ROOT),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "nproc": nproc, "blas_threads": blas_threads,
        "rows_sha256": jobs[0].digest, "errors": list(jobs[0].errors),
        "failed_checks": checks.failed,
    }
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
