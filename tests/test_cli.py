from pathlib import Path

import numpy as np
import pytest

from sneakpath import analysis, cli, mlp
from sneakpath import codec as gs
from sneakpath.channel import ChannelParams

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


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
                    "batch_size = 16\nseed = 6\nfilter = all\n")
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


class TestThresholdCommand:
    def test_report_matches_brute_force(self, tmp_path, capsys):
        cfg_text = ("sigma = 0\npf = 0.5\ntrain_count = 30\nepochs = 2\n"
                    "batch_size = 16\nseed = 2\nfilter = all\npool = 20\n"
                    "grid_step = 10\n")
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
