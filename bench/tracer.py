"""Per-layer tracing from outside the package, by wrapping its public functions.

The package binds some functions into other modules by name (``analysis``
and ``mlp`` import ``transmit`` and ``classify_array``, ``detectors``
imports ``tile_weights``), so patching only the defining module would miss
those calls.  :class:`Tracer` therefore replaces every attribute of every
loaded ``sneakpath`` module that *is* the original function object, and
puts each one back on exit.

Spans are aggregated at record time rather than kept one by one: a coded
run makes millions of wrapped calls.  For each wrapped function the tracer
keeps its call count, inclusive time and self time (inclusive time minus
the time spent in wrapped calls it made).  Work counters are taken at the
same boundaries, from each call's arguments and result.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass

import numpy as np


@dataclass
class FunctionStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _sneak_cells(tracer, args, kwargs, result):
    tracer.counts["channel.sneak_cells"] += int(result.sum())


def _candidates_scored(tracer, args, kwargs, result):
    tracer.counts["codec.candidates_scored"] += len(_arg(args, kwargs, 0, "candidates"))


def _classified(tracer, args, kwargs, result):
    tracer.counts["detectors.arrays"] += 1
    tracer.counts["detectors.flagged"] += int(result.affected)


def _forward_rows(tracer, args, kwargs, result):
    x = np.asarray(_arg(args, kwargs, 1, "x"))
    tracer.counts["mlp.forward.rows"] += 1 if x.ndim == 1 else x.shape[0]


def _dataset_kept(tracer, args, kwargs, result):
    tracer.counts["mlp.dataset_kept"] += len(result)


def _dataset_attempt(tracer, args, kwargs, result):
    # Every generate_dataset attempt makes exactly one channel use.
    if "mlp.generate_dataset" in tracer.active:
        tracer.counts["mlp.dataset_attempts"] += 1


# (module, function, counter hook) for every traced layer boundary.
TRACED = (
    ("rng", "derive_rng", None),
    ("channel", "transmit", _dataset_attempt),
    ("channel", "compute_sneak_mask", _sneak_cells),
    ("channel", "read_array", None),
    ("codec", "encode_array", None),
    ("codec", "candidate_set", None),
    ("codec", "score_candidates", _candidates_scored),
    ("codec", "decode_array", None),
    ("codec", "tile_weights", None),
    ("detectors", "pipeline_detect", None),
    ("detectors", "classify_array", _classified),
    ("detectors", "derive_threshold", None),
    ("mlp", "hard_decide", None),
    ("mlp", "forward", _forward_rows),
    ("mlp", "generate_dataset", _dataset_kept),
    ("mlp", "backward", None),
    ("mlp", "adam_step", None),
    ("analysis", "estimate_ber", None),
)

COUNTERS = ("channel.sneak_cells", "codec.candidates_scored", "detectors.arrays",
            "detectors.flagged", "mlp.forward.rows", "mlp.dataset_kept",
            "mlp.dataset_attempts")


class Tracer:
    """Context manager that wraps every binding of the traced functions."""

    def __init__(self):
        self.stats = {f"{mod}.{fn}": FunctionStats() for mod, fn, _ in TRACED}
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.active: list[str] = []   # names of the open spans, outermost first
        self._child_s: list[float] = []  # wrapped-child time of each open span
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, hook):
        stats = self.stats[name]
        active, child_s = self.active, self._child_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            active.append(name)
            child_s.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                active.pop()
                inner = child_s.pop()
                if child_s:
                    child_s[-1] += dt
                stats.calls += 1
                stats.total_s += dt
                stats.self_s += dt - inner
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        owners = [importlib.import_module(f"sneakpath.{mod}") for mod, _, _ in TRACED]
        modules = {id(m): m for m in owners}
        modules.update((id(m), m) for key, m in list(sys.modules.items())
                       if m is not None and key.partition(".")[0] == "sneakpath")
        for (mod_name, fn_name, hook), owner in zip(TRACED, owners):
            original = getattr(owner, fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, hook)
            sites = [(module, attr) for module in modules.values()
                     for attr, value in vars(module).items() if value is original]
            for module, attr in sites:
                setattr(module, attr, wrapper)
                self._patched.append((module, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
