"""Experiment front-end.

Commands::

    sneakpath bound     --config fig2.cfg --out bound.csv
    sneakpath train     --config fig2.cfg --model det.mlp --out loss.csv
    sneakpath threshold --config fig2.cfg --model det.mlp --out grid.csv
    sneakpath evaluate  --config fig2.cfg --model det.mlp --out ber.csv

Configs are flat ``key = value`` text files; any key can be overridden on
the command line with ``--set key=value``, e.g. ``--set detectors=pipeline_dl``.
:data:`CONFIG_KEYS` gives each key's type and default; other keys, and values
that do not cast to their key's type, are rejected.  ``bound`` and ``evaluate``
run the points of one ``sigma_list``, ``pf_list`` or ``rate_list`` sweep
(:func:`sweep_points`).  Result rows use the schema
``detector,sigma,pf,rate,trials,cells,errors,ber,ci95,seed`` and carry
everything needed to regenerate them byte-for-byte.

Exit codes: 0 success, 2 configuration error, 3 runtime error, broken model file
or failed read or write.
"""

from __future__ import annotations

import argparse
import difflib
import sys
from pathlib import Path

import numpy as np

from . import analysis, codec as gs, mlp
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

_BOOLS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
          **dict.fromkeys(("0", "false", "no", "off"), False)}


def _list(cast):
    """Cast for a nonempty comma-separated list; empty items are dropped."""
    def parse(text):
        items = [cast(tok.strip()) for tok in text.split(",") if tok.strip()]
        if not items:
            raise ValueError("lists no values")
        return items
    return parse


# Type and default of every config key; None: no default.  The channel keys
# (n to pf) take their defaults from ChannelParams.
CONFIG_KEYS = {
    "n": (int, None), "r0": (float, None), "r1": (float, None), "r_sp": (float, None),
    "sigma": (float, None), "pf": (float, None), "q": (float, 0.5),
    "coded": (bool, False), "m": (int, None), "l": (int, None), "poly": (_list(int), None),
    "criterion": (gs.Criterion, gs.Criterion.MNSP),
    "sigma_list": (_list(float), None), "pf_list": (_list(float), None),
    "rate_list": (_list(str), None), "detectors": (_list(str), (analysis.MIDPOINT,)),
    "threshold": (float, None), "trials": (int, 1000), "train_count": (int, 20000),
    # A seed is any integer numpy.random.SeedSequence takes, so not a negative one.
    "seed": (lambda text: np.random.SeedSequence(int(text)).entropy, 0),
    "filter": (str, mlp.AFFECTED_ONLY), "epochs": (int, 30), "pool": (int, 500),
}


class ConfigError(ValueError):
    pass


def parse_config(path: str | None, overrides: list[str]) -> dict[str, str]:
    entries: list[tuple[str, str]] = []  # (where, "key = value")
    if path is not None:
        p = Path(path)
        if not p.is_file():
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
        _cast(key, value)  # a bad value fails here, whether or not the command reads it
        cfg[key] = value
    return cfg


def _cast(key: str, value: str):
    cast = CONFIG_KEYS[key][0]
    try:
        return _BOOLS[value.lower()] if cast is bool else cast(value)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad value for {key!r}: {value!r}") from exc


def _get(cfg: dict, key: str):
    """The key's typed value; a missing key takes the key table's default."""
    if key in cfg:
        return _cast(key, cfg[key])
    default = CONFIG_KEYS[key][1]
    if default is None:
        raise ConfigError(f"missing config key {key!r}")
    return default


def channel_from(cfg: dict, sigma=None, p_f=None) -> ChannelParams:
    """The config's channel, ``sigma`` / ``p_f`` overriding; unset keys keep ChannelParams' defaults."""
    given = {"p_f" if key == "pf" else key: _get(cfg, key)
             for key in ("n", "r0", "r1", "r_sp", "sigma", "pf") if key in cfg}
    swept = {field: v for field, v in (("sigma", sigma), ("p_f", p_f)) if v is not None}
    return ChannelParams(**(given | swept))


def _operating_point(cfg: dict) -> tuple[ChannelParams, gs.CodecConfig | None]:
    """The one channel point and code ``train`` and ``threshold`` run at; they ignore sweep axes."""
    for axis, key, example in (("sigma_list", "sigma", "sigma=30"), ("pf_list", "pf", "pf=1e-3"),
                               ("rate_list", "coded", "coded=true --set m=8 --set l=4")):
        if axis in cfg and key not in cfg:
            raise ConfigError(f"train and threshold run at a single {key}: the config has "
                              f"{axis} but no {key}; set one, e.g. --set {example}")
    return channel_from(cfg), codec_from(cfg)


def codec_from(cfg: dict, rate_token: str | None = None) -> gs.CodecConfig | None:
    if rate_token is not None:
        if rate_token not in RATE_CONFIGS:
            raise ConfigError(f"unknown rate {rate_token!r}; known: {sorted(RATE_CONFIGS)}")
        (m, l), poly = RATE_CONFIGS[rate_token], None
    elif _get(cfg, "coded"):
        m, l = _get(cfg, "m"), _get(cfg, "l")
        poly = _get(cfg, "poly") if "poly" in cfg else None
    else:
        return None
    return gs.CodecConfig.make(m=m, l=l, poly=poly, criterion=_get(cfg, "criterion"))


def sweep_from(cfg: dict) -> tuple[str, list]:
    axes = [k for k in ("sigma_list", "pf_list", "rate_list") if k in cfg]
    if len(axes) != 1:
        raise ConfigError("exactly one of sigma_list / pf_list / rate_list is required")
    return axes[0].removesuffix("_list"), _get(cfg, axes[0])


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


def _row(detector: str, sigma, p_f, rate, counts, ber, ci95, seed) -> str:
    """One :data:`CSV_HEADER` row; ``counts`` are its trials, cells and errors."""
    return ",".join([detector, fmt(sigma), fmt(p_f), fmt(rate), *map(str, counts),
                     fmt(ber), fmt(ci95), str(seed)])


def estimate_row(est: analysis.BerEstimate) -> str:
    return _row(est.detector, est.sigma, est.p_f, est.rate, (est.trials, est.cells, est.errors),
                est.ber, est.ci95, est.seed)


def write_rows(out: str, rows: list[str], header: str = CSV_HEADER) -> None:
    Path(out).write_text("\n".join([header] + rows) + "\n")


# --- commands ------------------------------------------------------------

def cmd_bound(cfg: dict, args) -> int:
    seed = _get(cfg, "seed")
    rows = []
    for params, codec in sweep_points(cfg):
        scn = analysis.Scenario(analysis.MIDPOINT, params, codec=codec, q=_get(cfg, "q"))
        rows.append(_row("bound", params.sigma, params.p_f, scn.rate, (0, 0, 0),
                         analysis.bound_for_scenario(scn, seed), 0, seed))
    write_rows(args.out, rows)
    return 0


def cmd_train(cfg: dict, args) -> int:
    seed = _get(cfg, "seed")
    params, codec = _operating_point(cfg)
    count = _get(cfg, "train_count")
    tc = mlp.TrainConfig(batch_size=4 * params.n * params.n, epochs=_get(cfg, "epochs"), seed=seed)
    dataset = mlp.generate_dataset(params, codec, count, _get(cfg, "filter"), seed,
                                   q=_get(cfg, "q"))
    model = mlp.init_model(params.n * params.n, seed, normalizer=1.0 / params.r0)
    trace = mlp.train(model, dataset, tc)
    mlp.save(model, args.model)
    if args.out:
        write_rows(args.out, [f"{i},{fmt(loss)}" for i, loss in enumerate(trace)], "epoch,loss")
    print(f"trained {count} samples, final loss {trace[-1]:.6f}, model -> {args.model}")
    return 0


def cmd_threshold(cfg: dict, args) -> int:
    params, codec = _operating_point(cfg)
    model = _load_model(args, {}, params.n)
    result = mlp.calibrate_threshold(model, params, codec, _get(cfg, "pool"),
                                     _get(cfg, "seed") + 1, q=_get(cfg, "q"))
    if args.out:
        write_rows(args.out, [f"{fmt(t)},{int(d)}" for t, d in zip(result.grid, result.distances)],
                   "r_th,distance")
    print(f"r_th_spi={fmt(result.r_th_spi)}")
    return 0


def build_scenario(detector: str, params: ChannelParams, codec, cfg: dict, args,
                   model_cache: dict) -> analysis.Scenario:
    model = (_load_model(args, model_cache, params.n)
             if detector in analysis.NETWORK_DETECTORS else None)
    threshold = _get(cfg, "threshold") if detector == analysis.PIPELINE_THRESHOLD else None
    return analysis.Scenario(detector, params, codec=codec, q=_get(cfg, "q"),
                             model=model, threshold=threshold)


def _load_model(args, cache: dict, n: int) -> mlp.MlpModel:
    """The ``--model`` file, loaded once per command; it must read and write n x n arrays."""
    if "model" not in cache:
        if args.model is None or not Path(args.model).is_file():
            raise ConfigError("--model must point at a trained model file")
        cache["model"] = mlp.load(args.model)
    dims = cache["model"].dims
    if dims[0] != n * n or dims[-1] != n * n:
        raise ConfigError(f"model has {dims[0]} inputs and {dims[-1]} outputs; "
                          f"the config's {n}x{n} array needs {n * n} of each")
    return cache["model"]


def cmd_evaluate(cfg: dict, args) -> int:
    detector_set = _get(cfg, "detectors")
    model_cache: dict = {}
    # Every scenario is built, and so checked, before the first trial runs.
    scenarios = [build_scenario(detector, params, codec, cfg, args, model_cache)
                 for params, codec in sweep_points(cfg) for detector in detector_set]
    trials, seed = _get(cfg, "trials"), _get(cfg, "seed")
    write_rows(args.out, [estimate_row(analysis.estimate_ber(scn, trials, seed))
                          for scn in scenarios])
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
    parser.add_argument("--out", help="output CSV path")
    parser.add_argument("--model", help="model file (input or output)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config, args.overrides)
        # The path each command needs, and the paths it writes, are checked before any work.
        needed = {"bound": "out", "train": "model", "threshold": "model", "evaluate": "out"}
        if not getattr(args, needed[args.command]):
            raise ConfigError(f"{args.command} needs --{needed[args.command]}")
        written = (args.out, args.model if args.command == "train" else None)
        for path in (Path(p) for p in written if p is not None):
            if path.is_dir() or not path.parent.is_dir():
                raise ConfigError(f"cannot write {path}: not a file in an existing directory")
        return COMMANDS[args.command](cfg, args)
    # ModelFileError is a ValueError, so the runtime clause goes first.
    except (mlp.ModelFileError, mlp.FilterStarvationError, FloatingPointError,
            RuntimeError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
