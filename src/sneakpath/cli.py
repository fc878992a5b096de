"""Experiment front-end.

Commands::

    sneakpath bound     --config fig2.cfg --out bound.csv
    sneakpath train     --config fig2.cfg --model det.mlp --out loss.csv
    sneakpath threshold --config fig2.cfg --model det.mlp --out grid.csv
    sneakpath evaluate  --config fig2.cfg --model det.mlp --out ber.csv

Configs are flat ``key = value`` text files; any key can be overridden on
the command line with ``--set key=value``, e.g. ``--set detectors=pipeline_dl``.
Keys outside :data:`CONFIG_KEYS` are rejected.  ``bound`` and ``evaluate``
run the points of one ``sigma_list``, ``pf_list`` or ``rate_list`` sweep
(:func:`sweep_points`).  Result rows use the schema
``detector,sigma,pf,rate,trials,cells,errors,ber,ci95,seed`` and carry
everything needed to regenerate them byte-for-byte.

Exit codes: 0 success, 2 configuration error, 3 runtime error or broken model file.
"""

from __future__ import annotations

import argparse
import difflib
import sys
from pathlib import Path

import numpy as np

from . import analysis, codec as gs, detectors, mlp
from .channel import ChannelParams

EXIT_CONFIG = 2
EXIT_RUNTIME = 3

# Code-rate shorthand used by the rate sweep (sub-array side, redundancy).
RATE_CONFIGS = {
    "15/16": (8, 4),
    "14/16": (8, 8),
    "12/16": (4, 4),
    "10/16": (4, 6),
    "8/16": (4, 8),
}

CSV_HEADER = "detector,sigma,pf,rate,trials,cells,errors,ber,ci95,seed"

CONFIG_KEYS = frozenset((
    "n", "r0", "r1", "r_sp", "sigma", "pf", "q", "coded", "m", "l", "poly", "criterion",
    "sigma_list", "pf_list", "rate_list", "detectors", "threshold", "trials", "seed",
    "train_count", "filter", "batch_size", "lr", "epochs", "pool", "grid_step",
))

_BOOLS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
          **dict.fromkeys(("0", "false", "no", "off"), False)}


class ConfigError(ValueError):
    pass


def parse_config(path: str | None, overrides: list[str]) -> dict[str, str]:
    entries: list[tuple[str, str]] = []  # (where, "key = value")
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {path}")
        for lineno, line in enumerate(p.read_text().splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if line:
                entries.append((f"{path}:{lineno}", line))
    entries += [("--set", item) for item in overrides]
    cfg: dict[str, str] = {}
    for where, item in entries:
        if "=" not in item:
            raise ConfigError(f"{where}: expected key = value, got {item!r}")
        key, value = (part.strip() for part in item.split("=", 1))
        if key not in CONFIG_KEYS:
            near = difflib.get_close_matches(key, CONFIG_KEYS, n=1)
            hint = f"; did you mean {near[0]!r}?" if near else ""
            raise ConfigError(f"{where}: unknown config key {key!r}{hint}")
        cfg[key] = value
    return cfg


def _get(cfg: dict, key: str, cast, default=None):
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing config key {key!r}")
        return default
    try:
        if cast is bool:
            return _BOOLS[cfg[key].lower()]
        return cast(cfg[key])
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad value for {key!r}: {cfg[key]!r}") from exc


def channel_from(cfg: dict, sigma=None, p_f=None) -> ChannelParams:
    return ChannelParams(
        n=_get(cfg, "n", int, 16),
        r0=_get(cfg, "r0", float, 1000.0),
        r1=_get(cfg, "r1", float, 100.0),
        r_sp=_get(cfg, "r_sp", float, 250.0),
        sigma=_get(cfg, "sigma", float, 0.0) if sigma is None else sigma,
        p_f=_get(cfg, "pf", float, 0.0) if p_f is None else p_f,
    )


def codec_from(cfg: dict, rate_token: str | None = None) -> gs.CodecConfig | None:
    if rate_token is not None:
        if rate_token not in RATE_CONFIGS:
            raise ConfigError(f"unknown rate {rate_token!r}; known: {sorted(RATE_CONFIGS)}")
        m, l = RATE_CONFIGS[rate_token]
        crit = gs.Criterion(_get(cfg, "criterion", str, "mnsp"))
        return gs.CodecConfig.make(m=m, l=l, criterion=crit)
    if not _get(cfg, "coded", bool, False):
        return None
    m = _get(cfg, "m", int)
    l = _get(cfg, "l", int)
    poly = cfg.get("poly")
    crit = gs.Criterion(_get(cfg, "criterion", str, "mnsp"))
    return gs.CodecConfig.make(m=m, l=l, poly=poly, criterion=crit)


def sweep_from(cfg: dict) -> tuple[str, list]:
    axes = [k for k in ("sigma_list", "pf_list", "rate_list") if k in cfg]
    if len(axes) != 1:
        raise ConfigError("exactly one of sigma_list / pf_list / rate_list is required")
    axis = axes[0]
    raw = [tok.strip() for tok in cfg[axis].split(",") if tok.strip()]
    if axis == "rate_list":
        return "rate", raw
    try:
        return axis.split("_")[0], [float(tok) for tok in raw]
    except ValueError as exc:
        raise ConfigError(f"bad {axis}: {cfg[axis]!r}") from exc


def sweep_points(cfg: dict) -> list[tuple[ChannelParams, gs.CodecConfig | None]]:
    """Channel parameters and code of every point on the config's sweep axis."""
    axis, values = sweep_from(cfg)
    if axis == "rate":
        return [(channel_from(cfg), codec_from(cfg, rate_token=v)) for v in values]
    return [(channel_from(cfg, sigma=v if axis == "sigma" else None,
                          p_f=v if axis == "pf" else None), codec_from(cfg))
            for v in values]


def fmt(x: float) -> str:
    return f"{x:.10g}"


def estimate_row(est: analysis.BerEstimate) -> str:
    return ",".join([
        est.detector, fmt(est.sigma), fmt(est.p_f), fmt(est.rate),
        str(est.trials), str(est.cells), str(est.errors),
        fmt(est.ber), fmt(est.ci95), str(est.seed),
    ])


def write_rows(out: str, rows: list[str]) -> None:
    Path(out).write_text("\n".join([CSV_HEADER] + rows) + "\n")


# --- commands ------------------------------------------------------------

def cmd_bound(cfg: dict, args) -> int:
    seed = args.seed if args.seed is not None else _get(cfg, "seed", int, 0)
    q = _get(cfg, "q", float, 0.5)
    rows = []
    for params, codec in sweep_points(cfg):
        scn = analysis.Scenario(analysis.MIDPOINT, params, codec=codec, q=q)
        bound = analysis.bound_for_scenario(scn, seed)
        rows.append(",".join([
            "bound", fmt(params.sigma), fmt(params.p_f), fmt(scn.rate),
            "0", "0", "0", fmt(bound), "0", str(seed),
        ]))
    write_rows(args.out, rows)
    return 0


def cmd_train(cfg: dict, args) -> int:
    if args.model is None:
        raise ConfigError("train needs --model (output model path)")
    seed = args.seed if args.seed is not None else _get(cfg, "seed", int, 0)
    params = channel_from(cfg)
    codec = codec_from(cfg)
    count = _get(cfg, "train_count", int, 20000)
    class_filter = _get(cfg, "filter", str, mlp.AFFECTED_ONLY)
    dataset = mlp.generate_dataset(params, codec, count, class_filter, seed,
                                   q=_get(cfg, "q", float, 0.5))
    model = mlp.init_model(params.n * params.n, seed, normalizer=1.0 / params.r0)
    tc = mlp.TrainConfig(
        batch_size=_get(cfg, "batch_size", int, 4 * params.n * params.n),
        learning_rate=_get(cfg, "lr", float, 1e-3),
        epochs=_get(cfg, "epochs", int, 30),
        seed=seed,
    )
    trace = mlp.train(model, dataset, tc)
    mlp.save(model, args.model)
    if args.out:
        lines = ["epoch,loss"] + [f"{i},{fmt(loss)}" for i, loss in enumerate(trace)]
        Path(args.out).write_text("\n".join(lines) + "\n")
    print(f"trained {count} samples, final loss {trace[-1]:.6f}, model -> {args.model}")
    return 0


def cmd_threshold(cfg: dict, args) -> int:
    seed = args.seed if args.seed is not None else _get(cfg, "seed", int, 0)
    model = _load_model(args, {})
    result = mlp.calibrate_threshold(
        model, channel_from(cfg), codec_from(cfg), _get(cfg, "pool", int, 500), seed + 1,
        q=_get(cfg, "q", float, 0.5), step=_get(cfg, "grid_step", float, 1.0))
    if args.out:
        lines = ["r_th,distance"] + [
            f"{fmt(t)},{int(d)}" for t, d in zip(result.grid, result.distances)
        ]
        Path(args.out).write_text("\n".join(lines) + "\n")
    print(f"r_th_spi={fmt(result.r_th_spi)}")
    return 0


def build_scenario(detector: str, params: ChannelParams, codec, cfg: dict, args,
                   model_cache: dict) -> analysis.Scenario:
    q = _get(cfg, "q", float, 0.5)
    model = None
    spi = None
    if detector in (analysis.MLP_ALL, analysis.PIPELINE_DL):
        model = _load_model(args, model_cache)
    if detector == analysis.PIPELINE_THRESHOLD:
        r_th = _get(cfg, "threshold", float)
        spi = detectors.ThresholdDetector.checked(r_th, params)
    return analysis.Scenario(detector, params, codec=codec, q=q, model=model,
                             spi_detector=spi)


def _load_model(args, cache: dict):
    if "model" not in cache:
        if args.model is None or not Path(args.model).exists():
            raise ConfigError("--model must point at a trained model file")
        cache["model"] = mlp.load(args.model)
    return cache["model"]


def cmd_evaluate(cfg: dict, args) -> int:
    seed = args.seed if args.seed is not None else _get(cfg, "seed", int, 0)
    trials = args.trials if args.trials is not None else _get(cfg, "trials", int, 1000)
    detector_set = [tok.strip() for tok in _get(cfg, "detectors", str, "midpoint").split(",")]
    model_cache: dict = {}
    rows = []
    for params, codec in sweep_points(cfg):
        for detector in detector_set:
            scn = build_scenario(detector, params, codec, cfg, args, model_cache)
            est = analysis.estimate_ber(scn, trials, seed)
            rows.append(estimate_row(est))
    write_rows(args.out, rows)
    return 0


COMMANDS = {
    "bound": cmd_bound,
    "train": cmd_train,
    "threshold": cmd_threshold,
    "evaluate": cmd_evaluate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sneakpath", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override a config key")
    parser.add_argument("--seed", type=int, help="master seed override")
    parser.add_argument("--trials", type=int, help="Monte Carlo trials override")
    parser.add_argument("--out", help="output CSV path")
    parser.add_argument("--model", help="model file (input or output)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config, args.overrides)
        if args.command in ("bound", "evaluate") and not args.out:
            raise ConfigError(f"{args.command} needs --out")
        return COMMANDS[args.command](cfg, args)
    # ModelFileError is a ValueError, so the runtime clause goes first.
    except (mlp.ModelFileError, mlp.FilterStarvationError, FloatingPointError,
            RuntimeError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
