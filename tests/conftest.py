"""Shared fixtures for the acceptance suite.

The expensive pieces -- three trained detectors and the desk-scale BER
estimates they feed -- are built once per session and reused by every
criterion that needs them.  A terminal-summary hook prints one verdict
line per criterion at the end of the run.
"""

import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from sneakpath import analysis, codec as gs, mlp
from sneakpath.channel import ChannelParams
from sneakpath.detectors import ThresholdDetector

DESK_PARAMS = ChannelParams(sigma=30.0, p_f=1e-3)
DESK_CODEC = gs.CodecConfig.make(8, 4)
TRAIN_COUNT = 20_000
TEST_TRIALS = 10_000
EPOCHS = 120

_criterion_lines: list[tuple[int, str]] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _criterion_lines:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(_criterion_lines):
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def record():
    """Store and print one pass/fail line per acceptance criterion."""

    def _record(index: int, passed: bool, detail: str) -> bool:
        line = f"criterion {index:2d}: {'PASS' if passed else 'FAIL'} - {detail}"
        _criterion_lines.append((index, line))
        print(line, flush=True)
        return passed

    return _record


def _train_detectors(jobs, workdir: Path, timeout: float = 1800.0) -> list:
    """Train one detector per ``(name, codec, class_filter, seed)`` job with
    ``sneakpath train``, all jobs at once, each on one BLAS thread.

    Side by side the jobs keep every core busy; one in-process training at
    a time leaves cores idle outside its matrix products.  The first job,
    the longest, runs at normal priority and the rest below it, so it is not
    left to finish alone.  For these shapes (batches of 1,024 and 544 rows)
    NumPy's bundled OpenBLAS returns the same bits on one thread as on two,
    so the models match an in-process training, and so does every figure
    built on them.
    """
    p = DESK_PARAMS
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    src = str(Path(mlp.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    nice = shutil.which("nice")
    procs = []
    try:
        for name, codec, class_filter, seed in jobs:
            sets = {"n": p.n, "r0": p.r0, "r1": p.r1, "r_sp": p.r_sp, "sigma": p.sigma,
                    "pf": p.p_f, "filter": class_filter, "train_count": TRAIN_COUNT,
                    "epochs": EPOCHS, "coded": "false"}
            if codec is not None:
                sets.update(coded="true", m=codec.m, l=codec.l, criterion=codec.criterion.value,
                            poly=",".join(map(str, codec.poly.exponents())))
            argv = [sys.executable, "-m", "sneakpath.cli", "train", "--seed", str(seed),
                    "--model", str(workdir / f"{name}.mlp")]
            argv += [f"--set={key}={value}" for key, value in sets.items()]  # str(float) round-trips
            if procs and nice:
                argv = [nice, "-n", "10", *argv]
            with open(workdir / f"{name}.log", "w") as log:
                procs.append(subprocess.Popen(argv, env=env, stdout=log, stderr=subprocess.STDOUT))
        deadline = time.time() + timeout
        for (name, *_), proc in zip(jobs, procs):
            if proc.wait(timeout=max(deadline - time.time(), 1.0)) != 0:
                raise RuntimeError(f"training {name} failed:\n{(workdir / f'{name}.log').read_text()}")
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    return [mlp.load(workdir / f"{name}.mlp") for name, *_ in jobs]


@pytest.fixture(scope="session")
def desk_lab(tmp_path_factory):
    """Trained detectors and the derived threshold at sigma=30, p_f=1e-3."""
    t0 = time.time()
    model_cc, model_nocc, model_unf = _train_detectors(
        [("cc", DESK_CODEC, mlp.AFFECTED_ONLY, 101),
         ("nocc", None, mlp.AFFECTED_ONLY, 102),
         ("unf", None, mlp.ALL, 103)],
        tmp_path_factory.mktemp("desk"))
    search = mlp.calibrate_threshold(model_cc, DESK_PARAMS, DESK_CODEC, 400, seed=104)
    return SimpleNamespace(
        params=DESK_PARAMS,
        codec=DESK_CODEC,
        model_cc=model_cc,
        model_nocc=model_nocc,
        model_unf=model_unf,
        spi_detector=ThresholdDetector(search.r_th_spi),
        train_seconds=time.time() - t0,
    )


@pytest.fixture(scope="session")
def desk_estimates(desk_lab):
    """BER of the four compared detectors plus the threshold variant."""
    p, cc = desk_lab.params, desk_lab.codec
    scenarios = {
        "midpoint": analysis.Scenario(analysis.MIDPOINT, p),
        "cc_mlp": analysis.Scenario(analysis.PIPELINE_DL, p, codec=cc,
                                    model=desk_lab.model_cc),
        "nocc_mlp": analysis.Scenario(analysis.PIPELINE_DL, p,
                                      model=desk_lab.model_nocc),
        "unfiltered_mlp": analysis.Scenario(analysis.MLP_ALL, p,
                                            model=desk_lab.model_unf),
        "cc_threshold": analysis.Scenario(analysis.PIPELINE_THRESHOLD, p,
                                          codec=cc,
                                          spi_detector=desk_lab.spi_detector),
    }
    models = (desk_lab.model_cc, desk_lab.model_nocc, desk_lab.model_unf)
    t0 = time.time()
    estimates = {}
    call_deltas = {}
    for name, scn in scenarios.items():
        before = [m.inference_calls for m in models]
        estimates[name] = analysis.estimate_ber(scn, TEST_TRIALS, 201)
        call_deltas[name] = sum(m.inference_calls - b
                                for m, b in zip(models, before))
    return SimpleNamespace(
        estimates=estimates,
        call_deltas=call_deltas,
        eval_seconds=time.time() - t0,
        total_seconds=desk_lab.train_seconds + (time.time() - t0),
    )
