import contextlib
import hashlib
import io
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sneakpath import analysis, cli, mlp
from sneakpath import codec as gs
from sneakpath.channel import ChannelParams

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"


def write_cfg(tmp_path, text):
    p = tmp_path / "exp.cfg"
    p.write_text(text)
    return str(p)


class TestConfigParsing:
    def test_key_value_with_comments_and_overrides(self, tmp_path):
        path = write_cfg(tmp_path, "sigma = 30  # noise\n\npf = 1e-3\n")
        cfg = cli.parse_config(path, ["pf=1e-2", "trials=5"])
        assert cfg == {"sigma": "30", "pf": "1e-2", "trials": "5"}

    def test_missing_file(self):
        with pytest.raises(cli.ConfigError):
            cli.parse_config("/nonexistent.cfg", [])

    def test_bad_line(self, tmp_path):
        path = write_cfg(tmp_path, "this is not a key value pair\n")
        with pytest.raises(cli.ConfigError):
            cli.parse_config(path, [])

    def test_sweep_axis_must_be_unique(self):
        with pytest.raises(cli.ConfigError):
            cli.sweep_from({"sigma_list": "10", "pf_list": "1e-3"})
        with pytest.raises(cli.ConfigError):
            cli.sweep_from({})

    def test_shipped_configs_parse(self):
        for name in ("fig2.cfg", "fig3.cfg", "fig4.cfg"):
            cfg = cli.parse_config(str(CONFIG_DIR / name), [])
            cli.sweep_from(cfg)
            cli.channel_from(cfg)

    def test_unknown_key_names_nearest_known_key(self, tmp_path):
        path = write_cfg(tmp_path, "sigma_list = 30\ntrails = 5\n")
        with pytest.raises(cli.ConfigError, match="'trails'.*'trials'"):
            cli.parse_config(path, [])
        with pytest.raises(cli.ConfigError, match="'sigmaa'.*'sigma'"):
            cli.parse_config(None, ["sigmaa=3"])
        out = str(tmp_path / "ber.csv")
        assert cli.main(["evaluate", "--config", path, "--out", out]) == cli.EXIT_CONFIG
        assert cli.main(["bound", "--set", "sigma_list=30", "--set", "pff=1e-3",
                         "--out", out]) == cli.EXIT_CONFIG
        # train batches 4 n^2 rows; the batch size is not a key.
        with pytest.raises(cli.ConfigError, match="unknown config key 'batch_size'"):
            cli.parse_config(None, ["batch_size=16"])

    @pytest.mark.parametrize("text,coded", [
        ("true", True), ("On", True), ("1", True), ("yes", True),
        ("false", False), ("OFF", False), ("0", False), ("no", False),
    ])
    def test_boolean_spellings(self, text, coded):
        cfg = {"coded": text, "m": "8", "l": "4"}
        assert (cli.codec_from(cfg) is not None) == coded

    def test_bad_boolean_exits_config_error(self, tmp_path):
        path = write_cfg(tmp_path, "sigma_list = 30\ncoded = ture\nm = 8\nl = 4\n")
        with pytest.raises(cli.ConfigError, match="'coded'"):
            cli.codec_from(cli.parse_config(path, []))
        out = str(tmp_path / "ber.csv")
        assert cli.main(["evaluate", "--config", path, "--out", out]) == cli.EXIT_CONFIG


class TestBoundCommand:
    def test_rows_match_library(self, tmp_path):
        path = write_cfg(tmp_path, "pf = 0\nsigma_list = 20, 30\nseed = 3\n")
        out = tmp_path / "bound.csv"
        assert cli.main(["bound", "--config", path, "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == cli.CSV_HEADER
        for line, sigma in zip(lines[1:], (20.0, 30.0)):
            fields = line.split(",")
            assert fields[0] == "bound"
            expected = analysis.ber_lower_bound(ChannelParams(sigma=sigma), 0.5)
            assert float(fields[7]) == pytest.approx(expected)
            # p_f = 0 row reduces to the single Q term
            assert expected == pytest.approx(
                float(analysis.q_function(900.0 / (2.0 * sigma))))

    def test_coded_rate_row_matches_bound_for_scenario(self, tmp_path):
        path = write_cfg(tmp_path, "sigma = 30\npf = 1e-2\nq = 0.5\n"
                                   "rate_list = 12/16, 8/16\nseed = 4\n")
        out = tmp_path / "bound.csv"
        assert cli.main(["bound", "--config", path, "--out", str(out)]) == 0
        rows = out.read_text().strip().splitlines()[1:]
        for row, token in zip(rows, ("12/16", "8/16")):
            m, l = cli.RATE_CONFIGS[token]
            scn = analysis.Scenario(analysis.MIDPOINT, ChannelParams(sigma=30.0, p_f=1e-2),
                                    codec=gs.CodecConfig.make(m, l))
            fields = row.split(",")
            assert float(fields[3]) == scn.rate
            assert fields[7] == cli.fmt(analysis.bound_for_scenario(scn, 4))

    def test_sigma_grid_monotone(self, tmp_path):
        path = write_cfg(tmp_path, "pf = 1e-3\nsigma_list = 10,20,30,40,50,60\n")
        out = tmp_path / "bound.csv"
        assert cli.main(["bound", "--config", path, "--out", str(out)]) == 0
        bers = [float(l.split(",")[7]) for l in out.read_text().strip().splitlines()[1:]]
        assert bers == sorted(bers)


class TestEvaluateCommand:
    def test_clean_channel_rows_all_zero(self, tmp_path):
        path = write_cfg(tmp_path, "sigma_list = 0\npf = 0\ntrials = 20\nseed = 1\n")
        out = tmp_path / "ber.csv"
        assert cli.main(["evaluate", "--config", path, "--out", str(out)]) == 0
        row = out.read_text().strip().splitlines()[1].split(",")
        assert row[0] == "midpoint"
        assert row[6] == "0" and float(row[7]) == 0.0

    def test_repeat_run_byte_identical(self, tmp_path):
        path = write_cfg(tmp_path, "sigma_list = 30\npf = 1e-2\ntrials = 40\nseed = 9\n")
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["evaluate", "--config", path, "--out", str(out1)]) == 0
        assert cli.main(["evaluate", "--config", path, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("key", ["trials", "seed"])
    def test_run_keys_are_set_only_not_flags(self, tmp_path, capsys, key):
        with pytest.raises(SystemExit) as exc:
            cli.main(["evaluate", "--set", "sigma_list=30", "--out", str(tmp_path / "x.csv"),
                      f"--{key}", "5"])
        assert exc.value.code == cli.EXIT_CONFIG
        assert f"--{key}" in capsys.readouterr().err

    # Digests of the coded read path's CSV, recorded before the encoder was
    # batched over tiles; any change to encode, channel, detect or decode
    # draws or choices shows here.
    @pytest.mark.parametrize("criterion,digest", [
        ("mnsp", "7b355a646fdd65b7bf7c2205230a13dfaf4401bfedabc8560a17a462e86d6d98"),
        ("min_weight", "c9f073088f7281362f18fa38dc8f97720372391b2e08bc5fcd834e4bbae658eb"),
    ])
    def test_coded_rate_sweep_matches_golden_digest(self, tmp_path, criterion, digest):
        path = write_cfg(tmp_path, "pf = 1e-2\nsigma = 30\nq = 0.5\n"
                         "rate_list = 15/16, 14/16, 12/16, 10/16, 8/16\n"
                         "detectors = midpoint, pipeline_threshold\nthreshold = 170\n"
                         f"trials = 40\nseed = 6\ncriterion = {criterion}\n")
        out = tmp_path / "ber.csv"
        assert cli.main(["evaluate", "--config", path, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    # The uncoded sibling: pins the data draw of uncoded trials and the read path after it.
    def test_uncoded_pf_sweep_matches_golden_digest(self, tmp_path):
        path = write_cfg(tmp_path, "sigma = 30\nq = 0.3\npf_list = 1e-3, 1e-2, 0.2\n"
                         "detectors = midpoint, pipeline_threshold\nthreshold = 170\n"
                         "trials = 40\nseed = 6\n")
        out = tmp_path / "ber.csv"
        assert cli.main(["evaluate", "--config", path, "--out", str(out)]) == 0
        assert (hashlib.sha256(out.read_bytes()).hexdigest()
                == "38a8c322a3b1e9bc641c8d5ffd87c1e9893d0371f61075e9727202e94761c3bd")

    def test_detectors_parse_like_every_list(self, tmp_path):
        out = tmp_path / "ber.csv"
        code = cli.main(["evaluate", "--set", "sigma_list=30", "--set", "pf=0", "--set", "trials=2",
                         "--set", "threshold=170",
                         "--set", "detectors=midpoint, pipeline_threshold,", "--out", str(out)])
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["midpoint", "pipeline_threshold"]

    def test_missing_model_is_config_error(self, tmp_path):
        path = write_cfg(tmp_path,
                         "sigma_list = 30\npf = 1e-2\ndetectors = pipeline_dl\n"
                         "coded = true\nm = 8\nl = 4\n")
        out = tmp_path / "ber.csv"
        code = cli.main(["evaluate", "--config", path, "--out", str(out),
                         "--model", str(tmp_path / "missing.mlp")])
        assert code == cli.EXIT_CONFIG


class TestTrainCommand:
    def test_starvation_fails_fast_with_runtime_code(self, tmp_path):
        path = write_cfg(tmp_path,
                         "sigma = 0\npf = 0\ntrain_count = 5\nepochs = 1\nseed = 1\n")
        code = cli.main(["train", "--config", path,
                         "--model", str(tmp_path / "m.mlp"),
                         "--out", str(tmp_path / "loss.csv")])
        assert code == cli.EXIT_RUNTIME

    def test_train_reproducible_and_loss_decreases(self, tmp_path):
        cfg_text = ("sigma = 30\npf = 1e-2\ntrain_count = 40\nepochs = 8\n"
                    "seed = 6\nfilter = all\n")
        path = write_cfg(tmp_path, cfg_text)
        models = []
        for name in ("m1.mlp", "m2.mlp"):
            mp = tmp_path / name
            assert cli.main(["train", "--config", path, "--model", str(mp),
                             "--out", str(tmp_path / f"{name}.loss.csv")]) == 0
            models.append(mp.read_bytes())
        assert models[0] == models[1]
        losses = [float(l.split(",")[1]) for l in
                  (tmp_path / "m1.mlp.loss.csv").read_text().strip().splitlines()[1:]]
        assert losses[-1] < losses[0]

    def test_missing_model_path_is_config_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(mlp, "generate_dataset", lambda *args, **kwargs: pytest.fail("ran"))
        code = cli.main(["train", "--set", "sigma=30", "--set", "pf=0",
                         "--out", str(tmp_path / "loss.csv")])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert err.count("\n") == 1 and "train needs --model" in err
        assert list(tmp_path.iterdir()) == []


class TestSinglePointCommands:
    """``train`` and ``threshold`` run at one p_f and one sigma, not along a sweep."""

    @pytest.mark.parametrize("command", ["train", "threshold"])
    def test_pf_list_without_pf_exits_config_error(self, tmp_path, capsys, command):
        code = cli.main([command, "--config", str(CONFIG_DIR / "fig3.cfg"),
                         "--model", str(tmp_path / "m.mlp")])
        assert code == cli.EXIT_CONFIG
        assert "no pf" in capsys.readouterr().err

    def test_pf_override_runs(self, tmp_path):
        model = str(tmp_path / "m.mlp")
        sets = ["--set", "pf=1e-3", "--set", "train_count=20", "--set", "epochs=1",
                "--set", "pool=10"]
        for command in ("train", "threshold"):
            assert cli.main([command, "--config", str(CONFIG_DIR / "fig3.cfg"),
                             "--model", model, *sets]) == 0

    @pytest.mark.parametrize("command", ["train", "threshold"])
    def test_sigma_list_without_sigma_exits_config_error(self, tmp_path, capsys, command):
        text = "".join(line + "\n" for line in (CONFIG_DIR / "fig2.cfg").read_text().splitlines()
                       if not line.startswith("sigma ="))
        # Small sizes keep a regression that trains anyway short.
        code = cli.main([command, "--config", write_cfg(tmp_path, text),
                         "--model", str(tmp_path / "m.mlp"), "--set", "train_count=20",
                         "--set", "epochs=1", "--set", "pool=10"])
        assert code == cli.EXIT_CONFIG
        assert "no sigma" in capsys.readouterr().err

    def test_fig2_trains_at_its_named_operating_point(self):
        params, codec = cli._operating_point(cli.parse_config(str(CONFIG_DIR / "fig2.cfg"), []))
        assert (params.sigma, params.p_f) == (30.0, 1e-3)
        assert (codec.m, codec.l, codec.poly) == (8, 4, (4, 1, 0))

    @pytest.mark.parametrize("command", ["train", "threshold"])
    def test_rate_list_without_coded_exits_config_error(self, tmp_path, capsys, monkeypatch,
                                                         command):
        # fig4 sweeps rate_list and names no code of its own: training uncoded would be silent.
        monkeypatch.setattr(mlp, "generate_dataset", lambda *args, **kwargs: pytest.fail("ran"))
        code = cli.main([command, "--config", str(CONFIG_DIR / "fig4.cfg"),
                         "--model", str(tmp_path / "m.mlp")])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "no coded" in err and "--set coded=true --set m=8 --set l=4" in err
        assert list(tmp_path.iterdir()) == []

    def test_rate_list_with_explicit_uncoded_runs_uncoded(self):
        cfg = cli.parse_config(str(CONFIG_DIR / "fig4.cfg"), ["coded=false"])
        assert cli._operating_point(cfg)[1] is None


class TestOutOfRangeInputs:
    """Out-of-range values exit 2 with one line on stderr, before any trial or sample."""

    CODED = "coded = true\nm = 8\nl = 4\nsigma_list = 30\npf = 1e-2\n"

    @pytest.mark.parametrize("command,text,message,work", [
        ("evaluate", "sigma_list = 30\npf = 1e-2\ndetectors = midpoint, pipeline_threshold\n"
         "threshold = 1700\n", "threshold 1700", (analysis, "estimate_ber")),
        ("evaluate", CODED + "q = 1.5\n", "q must lie", (analysis, "estimate_ber")),
        ("bound", CODED + "q = 1.5\n", "q must lie", (analysis, "bound_for_scenario")),
        ("train", "sigma = 30\npf = 1e-2\nepochs = 0\n", "epochs", (mlp, "generate_dataset")),
        ("evaluate", "sigma_list = nan\npf = 1e-3\n", "finite", (analysis, "estimate_ber")),
        ("bound", "sigma_list = nan\npf = 1e-3\n", "finite", (analysis, "bound_for_scenario")),
        ("evaluate", "sigma_list = 30\npf = 1e-3\nr0 = inf\n", "finite",
         (analysis, "estimate_ber")),
        ("evaluate", "sigma_list = 30\npf = 1e-3\nr_sp = inf\n", "finite",
         (analysis, "estimate_ber")),
    ], ids=["threshold", "coded_q_evaluate", "coded_q_bound", "epochs", "nan_sigma_evaluate",
            "nan_sigma_bound", "inf_r0", "inf_r_sp"])
    def test_exits_config_error_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                command, text, message, work):
        def no_work(*args, **kwargs):
            raise AssertionError(f"{work[1]} ran before the input was checked")

        monkeypatch.setattr(*work, no_work)
        out = tmp_path / "out.csv"
        code = cli.main([command, "--config", write_cfg(tmp_path, text), "--out", str(out),
                         "--model", str(tmp_path / "m.mlp")])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert err.count("\n") == 1 and message in err and "Traceback" not in err
        assert not out.exists()

    def test_empty_threshold_grid_draws_no_pool(self, tmp_path, capsys, monkeypatch):
        # r0 - r1 <= 1 ohm leaves no 1-ohm grid step strictly between them.
        model = tmp_path / "m.mlp"
        mlp.save(mlp.init_model(16, 0), model)
        monkeypatch.setattr(mlp, "generate_dataset",
                            lambda *args, **kwargs: pytest.fail("the pool was drawn"))
        code = cli.main(["threshold", "--set", "n=4", "--set", "r0=100.5", "--set", "r1=100",
                         "--model", str(model)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert err.count("\n") == 1 and "empty threshold grid" in err

    def test_code_over_the_candidate_budget_allocates_nothing(self, tmp_path, capsys,
                                                              monkeypatch):
        # 2**20 candidates of 64 cells: the encoder would need GiB-sized temporaries.
        def no_work(*args, **kwargs):
            raise AssertionError("the encoder ran before the code was checked")

        monkeypatch.setattr(gs, "_index_patterns", no_work)
        monkeypatch.setattr(gs, "encode_array", no_work)
        out = tmp_path / "out.csv"
        code = cli.main(["evaluate", "--config", write_cfg(tmp_path, self.CODED),
                         "--set", "l=20", "--set", "poly=20,3,0", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert err.count("\n") == 1 and "budget" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command,setting,work", [
        ("evaluate", "epochs=abc", (analysis, "estimate_ber")),
        ("bound", "trials=x", (analysis, "bound_for_scenario")),
        ("bound", "criterion=fewest", (analysis, "bound_for_scenario")),
        ("bound", "detectors=,", (analysis, "bound_for_scenario")),
        ("bound", "poly=,", (analysis, "bound_for_scenario")),
        ("bound", "poly=4,x,0", (analysis, "bound_for_scenario")),
        # NumPy seeds are nonnegative; threshold's pool seed, seed + 1, would hide -1.
        ("evaluate", "seed=-1", (analysis, "estimate_ber")),
        ("bound", "seed=-1", (analysis, "bound_for_scenario")),
        ("train", "seed=-1", (mlp, "generate_dataset")),
        ("threshold", "seed=-1", (mlp, "generate_dataset")),
    ])
    def test_value_of_a_key_the_command_ignores_is_checked(self, tmp_path, capsys, monkeypatch,
                                                           command, setting, work):
        monkeypatch.setattr(*work, lambda *args, **kwargs: pytest.fail("work ran"))
        out = tmp_path / "out.csv"
        code = cli.main([command, "--set", "sigma_list=30", "--set", setting, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert err.count("\n") == 1 and repr(setting.split("=")[0]) in err
        assert not out.exists()

    @pytest.mark.parametrize("settings,key", [(["coded=true", "m=8"], "l"),
                                              (["detectors=pipeline_threshold"], "threshold")])
    def test_missing_key_is_named(self, tmp_path, capsys, monkeypatch, settings, key):
        monkeypatch.setattr(analysis, "estimate_ber", lambda *args, **kwargs: pytest.fail("ran"))
        out = tmp_path / "out.csv"
        sets = [arg for setting in settings for arg in ("--set", setting)]
        code = cli.main(["evaluate", "--set", "sigma_list=30", *sets, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert err.count("\n") == 1 and f"missing config key {key!r}" in err
        assert not out.exists()


class TestBadPaths:
    """A path that cannot be read or written exits 2 with one stderr line, before any work."""

    @pytest.mark.parametrize("command,argv,message,work", [
        ("evaluate", ["--out", "{missing}/x.csv"], "cannot write", (analysis, "estimate_ber")),
        ("evaluate", ["--out", "{dir}"], "cannot write", (analysis, "estimate_ber")),
        ("bound", ["--out", "{missing}/x.csv"], "cannot write",
         (analysis, "bound_for_scenario")),
        ("train", ["--model", "{missing}/det.mlp"], "cannot write", (mlp, "generate_dataset")),
        ("train", ["--model", "{dir}"], "cannot write", (mlp, "generate_dataset")),
        ("train", ["--model", "{tmp}/det.mlp", "--out", "{missing}/loss.csv"], "cannot write",
         (mlp, "generate_dataset")),
        ("threshold", ["--model", "{dir}"], "--model", (mlp, "generate_dataset")),
        ("evaluate", ["--model", "{dir}", "--set", "detectors=pipeline_dl", "--out", "{tmp}/x.csv"],
         "--model", (analysis, "estimate_ber")),
        ("evaluate", ["--config", "{dir}", "--out", "{tmp}/x.csv"], "config file",
         (analysis, "estimate_ber")),
    ], ids=["evaluate_out_missing_dir", "evaluate_out_is_dir", "bound_out_missing_dir",
            "train_model_missing_dir", "train_model_is_dir", "train_out_missing_dir",
            "threshold_model_is_dir", "evaluate_model_is_dir", "config_is_dir"])
    def test_exits_config_error_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                command, argv, message, work):
        def no_work(*args, **kwargs):
            raise AssertionError(f"{work[1]} ran before the path was checked")

        monkeypatch.setattr(*work, no_work)
        (tmp_path / "dir").mkdir()
        paths = dict(tmp=tmp_path, dir=tmp_path / "dir", missing=tmp_path / "missing")
        code = cli.main([command, "--set", "sigma_list=30", "--set", "sigma=30", "--set", "pf=0",
                         "--set", "trials=5", *(arg.format(**paths) for arg in argv)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert err.count("\n") == 1 and message in err and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dir"]

    @pytest.mark.parametrize("command,work", [
        ("bound", (analysis, "bound_for_scenario")), ("evaluate", (analysis, "estimate_ber")),
    ])
    @pytest.mark.parametrize("axis", ["sigma_list=,", "pf_list=", "rate_list=,"])
    def test_empty_sweep_names_the_key(self, tmp_path, capsys, monkeypatch, command, work,
                                       axis):
        monkeypatch.setattr(*work, lambda *args, **kwargs: pytest.fail("work ran"))
        out = tmp_path / "out.csv"
        code = cli.main([command, "--set", axis, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert err.count("\n") == 1 and axis.split("=")[0] in err
        assert not out.exists()

    @pytest.mark.parametrize("method", ["read_text", "write_text"])
    def test_failed_read_or_write_is_runtime_error(self, tmp_path, capsys, monkeypatch, method):
        def fails(self, *args, **kwargs):
            raise OSError(f"[Errno 5] Input/output error: '{self}'")

        config = write_cfg(tmp_path, "sigma_list = 30\n")
        monkeypatch.setattr(Path, method, fails)
        code = cli.main(["bound", "--config", config, "--out", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert code == cli.EXIT_RUNTIME
        assert err.count("\n") == 1 and "Input/output error" in err and "Traceback" not in err


def model_bytes(dims, normalizer=1e-3):
    """A model file with the given dims, zero parameters and ``normalizer``."""
    params = sum((d_in + 1) * d_out for d_in, d_out in zip(dims, dims[1:]))
    return (mlp.MAGIC + struct.pack(f"<I{len(dims)}I", len(dims) - 1, *dims)
            + bytes(8 * params) + struct.pack("<d", normalizer))


class TestModelFile:
    """A model that cannot serve the config fails with one stderr line, before any work."""

    def run(self, tmp_path, capsys, monkeypatch, command, data, work):
        def no_work(*args, **kwargs):
            raise AssertionError(f"{work[1]} ran before the model was checked")

        monkeypatch.setattr(*work, no_work)
        model_path = tmp_path / "m.mlp"
        model_path.write_bytes(data)
        out = tmp_path / "out.csv"
        code = cli.main([command, "--set", "sigma_list=30", "--set", "sigma=30", "--set", "pf=0",
                         "--set", "detectors=pipeline_dl", "--set", "trials=5",
                         "--model", str(model_path), "--out", str(out)])
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()
        return code, err

    @pytest.mark.parametrize("command,work", [
        ("evaluate", (analysis, "estimate_ber")), ("threshold", (mlp, "generate_dataset")),
    ])
    @pytest.mark.parametrize("dims", [[16, 64, 32, 16], [256, 16], [16, 256]],
                             ids=["4x4_model", "16_outputs", "16_inputs"])
    def test_size_must_match_the_array(self, tmp_path, capsys, monkeypatch, command, work,
                                       dims):
        code, err = self.run(tmp_path, capsys, monkeypatch, command, model_bytes(dims), work)
        assert code == cli.EXIT_CONFIG
        assert f"{dims[0]} inputs and {dims[-1]} outputs" in err and "16x16" in err

    @pytest.mark.parametrize("data", [
        model_bytes([256]), model_bytes([256, 0, 256]), model_bytes([256, 256], float("nan")),
        model_bytes([256, 256], float("inf")), model_bytes([256, 256], 0.0),
        model_bytes([256, 256], -1e-3),
    ], ids=["no_layer", "zero_dim", "nan_normalizer", "inf_normalizer", "zero_normalizer",
            "negative_normalizer"])
    def test_broken_model_is_runtime_error(self, tmp_path, capsys, monkeypatch, data):
        code, err = self.run(tmp_path, capsys, monkeypatch, "evaluate", data,
                             (analysis, "estimate_ber"))
        assert code == cli.EXIT_RUNTIME and "m.mlp" in err


CONFIG_VALUES = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "0", "1", "-1", "2", "4", "8", "16", "30", "1e-3",
                     "0.5", "1e308", "1e309", "true", "false", "4,1,0", "8,4,3,2,0", "15/16",
                     "8/16", "mnsp", "min_weight", "30, nan", "1e-3, inf", ""]),
    st.text(max_size=10),
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from(sorted(cli.CONFIG_KEYS)), CONFIG_VALUES, max_size=8))
def test_config_text_yields_finite_channels_or_config_errors(entries):
    """Any config text gives ConfigError / ValueError, or only finite channel parameters."""
    try:
        cfg = cli.parse_config(None, [f"{key}={value}" for key, value in entries.items()])
    except cli.ConfigError:
        return
    channels = []
    for build in (lambda: channels.append(cli.channel_from(cfg)), lambda: cli.codec_from(cfg),
                  lambda: channels.extend(params for params, _ in cli.sweep_points(cfg))):
        try:
            build()
        except (cli.ConfigError, ValueError):
            pass
    assert all(np.isfinite(v) for params in channels for v in vars(params).values())


# Values the end-to-end fuzz gives each key: some valid ones, and malformed or out-of-range
# ones for any key.  The valid lists keep n <= 16 and l <= 8 so that no run needs more
# than 2**8 candidates per tile.
VALID_TOKENS = {
    "n": ["4", "8", "16"], "r0": ["1000", "2000"], "r1": ["100", "150"], "r_sp": ["250"],
    "sigma": ["0", "30"], "pf": ["0", "1e-3", "1e-2"], "q": ["0.3", "0.5"],
    "coded": ["true", "false"], "m": ["2", "4", "8"], "l": ["4", "6", "8"],
    "poly": ["4,1,0", "8,4,3,2,0"], "criterion": ["mnsp", "min_weight"],
    "sigma_list": ["30", "10, 30"], "pf_list": ["1e-3", "0, 1e-2"],
    "rate_list": ["15/16", "12/16, 8/16"], "threshold": ["170", "550"], "seed": ["0", "7"],
    "detectors": ["midpoint", "pipeline_threshold", "midpoint, pipeline_threshold", "mlp_all"],
}
BAD_TOKENS = ["", "nan", "inf", "-inf", "-1", "0", "1.5", "1e308", "x", ",", "30, nan", "9/16"]
SWEEP_AXES = ("sigma_list", "pf_list", "rate_list")


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["bound", "evaluate"]), st.sampled_from(SWEEP_AXES),
       st.lists(st.sampled_from(sorted(cli.CONFIG_KEYS)), unique=True, max_size=8), st.data())
def test_main_exits_cleanly_on_any_config_text(command, axis, keys, data):
    """Any config text makes ``bound`` / ``evaluate`` exit 0, 2 or 3; a failure prints one
    stderr line and no traceback."""
    def token(key):
        valid = st.sampled_from(VALID_TOKENS.get(key, ["1"]))
        return data.draw(valid | st.sampled_from(BAD_TOKENS))

    text = "".join(f"{key} = {token(key)}\n" for key in dict.fromkeys([axis, *keys]))
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "exp.cfg"
        config.write_text(text)
        with contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", str(config), "--out", str(Path(tmp) / "o.csv"),
                             "--set", "trials=2"])
    assert code in (0, cli.EXIT_CONFIG, cli.EXIT_RUNTIME)
    if code != 0:
        assert err.getvalue().count("\n") == 1 and "Traceback" not in err.getvalue()


class TestThresholdCommand:
    def test_report_matches_brute_force(self, tmp_path, capsys):
        cfg_text = ("sigma = 0\npf = 0.5\ntrain_count = 30\nepochs = 2\n"
                    "seed = 2\nfilter = all\npool = 20\n")
        path = write_cfg(tmp_path, cfg_text)
        model_path = tmp_path / "m.mlp"
        assert cli.main(["train", "--config", path, "--model", str(model_path)]) == 0
        out = tmp_path / "grid.csv"
        assert cli.main(["threshold", "--config", path, "--model", str(model_path),
                         "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "r_th,distance"
        distances = [int(l.split(",")[1]) for l in lines[1:]]
        printed = capsys.readouterr().out
        assert "r_th_spi=" in printed
        r_star = float(printed.split("r_th_spi=")[1].strip())
        grid = [float(l.split(",")[0]) for l in lines[1:]]
        assert distances[grid.index(r_star)] == min(distances)

    @pytest.mark.parametrize("damage", ["truncate", "pad"])
    def test_damaged_model_file_is_runtime_error(self, tmp_path, capsys, damage):
        model_path = tmp_path / "m.mlp"
        mlp.save(mlp.init_model(16, 1), model_path)
        data = model_path.read_bytes()
        model_path.write_bytes(data[:-5] if damage == "truncate" else data + b"\0" * 8)
        path = write_cfg(tmp_path, "n = 4\nsigma = 30\npf = 1e-2\npool = 3\n")
        code = cli.main(["threshold", "--config", path, "--model", str(model_path)])
        assert code == cli.EXIT_RUNTIME
        assert str(model_path) in capsys.readouterr().err

    def test_missing_model_file(self, tmp_path):
        path = write_cfg(tmp_path, "sigma = 30\npf = 1e-2\n")
        code = cli.main(["threshold", "--config", path,
                         "--model", str(tmp_path / "nope.mlp")])
        assert code == cli.EXIT_CONFIG


def test_import_and_evaluate_leave_scipy_special_unloaded(tmp_path):
    script = ("import sys, sneakpath\n"
              "assert 'scipy.special' not in sys.modules\n"
              "from sneakpath.cli import main\n"
              "assert main(['evaluate', '--set', 'sigma_list=30', '--set', 'pf=1e-2',\n"
              f"             '--set', 'trials=3', '--out', {str(tmp_path / 'ber.csv')!r}]) == 0\n"
              "assert 'scipy.special' not in sys.modules\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
