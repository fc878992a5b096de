"""Tests of the benchmark itself.

    python3 -m pytest bench -q

Tiny runs (``--tiny``) go through the same code as full runs, on a few
arrays per job.
"""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
import workloads as wl  # noqa: E402
from sneakpath import analysis, cli, detectors, mlp  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT = ("codec.candidates_scored", "channel.sneak_cells", "detectors.flagged",
         "mlp.forward.calls", "mlp.dataset_attempts")


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), "--seconds", "0.2", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result(workload, seed, trace):
    proc = bench("--workload", workload, "--seed", str(seed), "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_end_to_end_metric(workload):
    out = result(workload, 3, 0)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_emit_per_layer_metrics_and_repeat_counts(workload):
    first, second = result(workload, 5, 1), result(workload, 5, 1)
    assert first["correct"] and second["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == expected
    for name, metric in first["metrics"].items():
        if name in EXACT or name.endswith(".calls"):
            assert metric["value"] == second["metrics"][name]["value"], name


def test_counts_show_where_each_workload_works():
    uncoded, coded = result("mc_uncoded", 7, 1)["metrics"], result("mc_coded", 7, 1)["metrics"]
    assert uncoded["codec.candidates_scored"]["value"] == 0
    # 15/16 scores 2**4 candidates per 8x8 tile, 8/16 2**8 per 4x4 tile.
    trials = wl.SIZES["tiny"]["mc_coded_trials"]
    assert coded["codec.candidates_scored"]["value"] == 2 * trials * (4 * 16 + 16 * 256)
    assert uncoded["mlp.forward.calls"]["value"] > 0
    assert uncoded["mlp.rows_per_forward"]["value"] == 1


def test_without_package_source_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_wraps_every_binding_and_restores_it():
    originals = {(mod, fn): getattr(sys.modules[f"sneakpath.{mod}"], fn)
                 for mod, fn, _ in tracer.TRACED}
    # Names bound by import into other modules, which a defining-module patch misses.
    imported = [(analysis, "transmit"), (mlp, "transmit"), (analysis, "classify_array"),
                (mlp, "classify_array"), (detectors, "tile_weights"),
                (analysis, "derive_rng"), (mlp, "derive_rng")]
    package = [m for key, m in sys.modules.items() if key.partition(".")[0] == "sneakpath"]
    with tracer.Tracer():
        for module in package:
            for value in vars(module).values():
                assert all(value is not orig for orig in originals.values())
        assert all(hasattr(getattr(module, name), "__wrapped__") for module, name in imported)
    for (mod, fn), orig in originals.items():
        assert getattr(sys.modules[f"sneakpath.{mod}"], fn) is orig
    assert analysis.transmit is originals[("channel", "transmit")]


@pytest.mark.parametrize("cfg", [wl.MC_UNCODED_CFG, wl.MC_CODED_CFG])
def test_sweep_rows_match_sneakpath_evaluate_output(cfg, tmp_path):
    setup = wl.train_detectors(wl.SIZES["tiny"])
    model = setup.models["coded" if "rate_list" in cfg else "uncoded"]
    model_path, out = tmp_path / "det.mlp", tmp_path / "ber.csv"
    mlp.save(model, model_path)
    config = tmp_path / "exp.cfg"
    config.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()) + "trials = 4\nseed = 11\n")
    assert cli.main(["evaluate", "--config", str(config), "--model", str(model_path),
                     "--out", str(out)]) == 0
    job = wl.evaluate_sweep(cfg, model, 4, 11)
    assert job.digest == hashlib.sha256(out.read_bytes()).hexdigest()
