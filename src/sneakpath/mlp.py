"""From-scratch dense network used as the learned array detector.

Architecture: N^2 inputs -> 4*N^2 ReLU -> 2*N^2 ReLU -> N^2 sigmoid.
Inputs are measured resistances scaled by a fixed normalizer (1/r0 by
default); outputs are per-cell soft estimates of the stored bits.
Training is plain mini-batch Adam on mean binary cross-entropy, all in
64-bit numpy, fully deterministic for a given seed.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import codec as gs
from .analysis import MIDPOINT, Scenario, simulate_block, trial_blocks
# transmit, classify_array and derive_rng stay bound for bench/test_bench.py's tracer test.
from .channel import ChannelParams, transmit  # noqa: F401
from .detectors import (ThresholdSearchResult, classify_array, default_grid,  # noqa: F401
                        derive_threshold, flag_arrays, threshold_detect)
from .rng import derive_rng  # noqa: F401

MAGIC = b"SPMLP1"

# Adam moment decay rates and denominator guard (Kingma & Ba defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
_ADAM_BLOCK = 1 << 14  # entries per row block of an Adam update; a block stays in cache
BCE_CLAMP = 1e-12  # probabilities are clipped to [BCE_CLAMP, 1 - BCE_CLAMP] in the loss

AFFECTED_ONLY = "affected_only"
ALL = "all"
DATASET_BUDGET = 200  # attempts per requested array before the filter gives up


class FilterStarvationError(RuntimeError):
    """Raised when the affected-array filter cannot fill the requested count."""


class ModelFileError(ValueError):
    """Raised when a file is not a complete model written by :func:`save`."""


@dataclass
class MlpModel:
    dims: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    normalizer: float
    inference_calls: int = 0  # bumped per forward batch, for power accounting

    @property
    def n_layers(self) -> int:
        return len(self.weights)


def init_model(n_inputs: int, seed: int, normalizer: float = 1.0 / 1000.0) -> MlpModel:
    """Seeded He/Xavier initialization of the 4-layer detector network."""
    dims = [n_inputs, 4 * n_inputs, 2 * n_inputs, n_inputs]
    return _init_from_dims(dims, seed, normalizer)


def _init_from_dims(dims: list[int], seed: int, normalizer: float) -> MlpModel:
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    weights, biases = [], []
    for i in range(len(dims) - 1):
        fan_in, fan_out = dims[i], dims[i + 1]
        if i < len(dims) - 2:  # ReLU layers: He scaling
            scale = np.sqrt(2.0 / fan_in)
        else:  # sigmoid output: Xavier scaling
            scale = np.sqrt(1.0 / fan_in)
        weights.append(rng.normal(0.0, scale, (fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpModel(dims=list(dims), weights=weights, biases=biases, normalizer=normalizer)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Overflow-free logistic: 1/(1+e^-x) for x >= 0, e^x/(1+e^x) below."""
    ex = np.exp(-np.abs(x))  # e^-x where x >= 0, e^x below
    # e^-|x| <= 1, so a max with (x >= 0) picks the numerator without a branch.
    return np.maximum(ex, x >= 0) / (ex + 1.0)


def _forward_pass(model: MlpModel, x: np.ndarray) -> list[np.ndarray]:
    """Return post-activation values per layer, input included."""
    acts = [x]
    h = x
    last = model.n_layers - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = h @ w + b
        h = sigmoid(z) if i == last else relu(z)
        acts.append(h)
    return acts


def forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Soft estimates in (0,1) for one input vector or a batch."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != model.dims[0]:
        raise ValueError(f"expected {model.dims[0]} inputs, got {x.shape[-1]}")
    if not np.isfinite(x).all():
        raise ValueError("non-finite input")
    model.inference_calls += 1
    return _forward_pass(model, x)[-1]


def hard_decide(model: MlpModel, reads: np.ndarray) -> np.ndarray:
    """Detect a full read array: normalize, run the net, threshold at 0.5."""
    n = reads.shape[0]
    soft = forward(model, reads.reshape(-1) * model.normalizer)
    return (soft > 0.5).astype(np.int64).reshape(n, n)


def bce_loss(p: np.ndarray, y: np.ndarray) -> float:
    """Mean binary cross-entropy with clamped probabilities."""
    p = np.clip(p, BCE_CLAMP, 1.0 - BCE_CLAMP)
    return float(np.mean(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))))


def backward(model: MlpModel, x: np.ndarray, y: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray], float]:
    """Gradients of mean BCE over a batch; returns (dW, db, loss)."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    acts = _forward_pass(model, x)
    p = acts[-1]
    loss = bce_loss(p, y)
    # Mean over batch and output cells; sigmoid+BCE collapses to (p - y).
    scale = 1.0 / p.size
    delta = (p - y) * scale
    dw = [np.empty(0)] * model.n_layers
    db = [np.empty(0)] * model.n_layers
    for i in range(model.n_layers - 1, -1, -1):
        dw[i] = acts[i].T @ delta
        db[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ model.weights[i].T) * (acts[i] > 0.0)
    return dw, db, loss


@dataclass
class TrainConfig:
    batch_size: int = 1024
    learning_rate: float = 1e-3
    epochs: int = 30
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


@dataclass
class AdamState:
    m: list[np.ndarray]  # first moments, over model.weights + model.biases
    v: list[np.ndarray]  # second moments, same order
    t: int = 0

    @classmethod
    def for_model(cls, model: MlpModel) -> "AdamState":
        params = model.weights + model.biases
        return cls(m=[np.zeros_like(p) for p in params], v=[np.zeros_like(p) for p in params])


def adam_step(model: MlpModel, dw: list[np.ndarray], db: list[np.ndarray],
              state: AdamState, cfg: TrainConfig) -> None:
    """One in-place Adam update with bias correction."""
    state.t += 1
    c1 = 1.0 - ADAM_BETA1 ** state.t
    c2 = 1.0 - ADAM_BETA2 ** state.t
    for param, grad, m, v in zip(model.weights + model.biases, dw + db, state.m, state.v):
        rows = max(1, _ADAM_BLOCK * len(param) // param.size)
        for r in range(0, len(param), rows):
            p, g, mb, vb = (a[r : r + rows] for a in (param, grad, m, v))
            mb *= ADAM_BETA1
            mb += (1.0 - ADAM_BETA1) * g
            vb *= ADAM_BETA2
            vb += (1.0 - ADAM_BETA2) * g * g
            p -= cfg.learning_rate * (mb / c1) / (np.sqrt(vb / c2) + ADAM_EPS)


@dataclass
class Dataset:
    inputs: np.ndarray  # (count, N^2), already normalized
    labels: np.ndarray  # (count, N^2) binary

    def __len__(self) -> int:
        return self.inputs.shape[0]


def _unflaggable(params: ChannelParams, fails: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Attempts the comparator cannot flag whatever their data: no selector failed, and each
    cell's read detects right both as LRS (r1 + z < midpoint) and as HRS (r0 + z >= it)."""
    right = (params.r1 + noise < params.midpoint) & (params.r0 + noise >= params.midpoint)
    return ~fails.any(axis=(-2, -1)) & right.all(axis=(-2, -1))


def generate_dataset(params: ChannelParams, cfg: gs.CodecConfig | None, count: int,
                     class_filter: str, seed: int, q: float = 0.5) -> Dataset:
    """Sample (reads / r0, stored bits) pairs through encode -> write -> read.

    Attempt ``i`` is trial ``i`` of :func:`analysis.simulate_block`, as in
    :func:`analysis.estimate_ber`.  ``class_filter`` AFFECTED_ONLY keeps only arrays
    the weight comparator flags as sneak-path-affected, and draws no data for an
    attempt it cannot flag (:func:`_unflaggable`); the sampler gives up with
    :class:`FilterStarvationError` after ``DATASET_BUDGET * count`` attempts.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if class_filter not in (AFFECTED_ONLY, ALL):
        raise ValueError(f"unknown class filter {class_filter!r}")
    norm = 1.0 / params.r0
    scn = Scenario(MIDPOINT, params, codec=cfg, q=q)
    inputs = np.empty((count, params.n * params.n))
    labels = np.empty((count, params.n * params.n), dtype=np.int64)
    kept = 0
    affected_only = class_filter == AFFECTED_ONLY
    budget = DATASET_BUDGET * count
    skip = (lambda fails, noise: _unflaggable(params, fails, noise)) if affected_only else None
    for block in trial_blocks(budget if affected_only else count, params.n):
        _, bits, weights, tile, reads = simulate_block(scn, seed, block, skip)
        if affected_only:
            flagged = flag_arrays(threshold_detect(reads, params.midpoint), weights, tile)
            bits, reads = bits[flagged], reads[flagged]
        take = min(count - kept, len(bits))
        inputs[kept : kept + take] = reads[:take].reshape(-1, inputs.shape[1]) * norm
        labels[kept : kept + take] = bits[:take].reshape(-1, labels.shape[1])
        kept += take
        if kept == count:
            break
    else:
        raise FilterStarvationError(
            f"only {kept}/{count} arrays passed the {class_filter} filter "
            f"within {budget} attempts (p_f={params.p_f})"
        )
    return Dataset(inputs=inputs, labels=labels)


def calibrate_threshold(model: MlpModel, params: ChannelParams, cfg: gs.CodecConfig | None,
                        count: int, seed: int, q: float = 0.5) -> ThresholdSearchResult:
    """Threshold (1-ohm steps strictly between r1 and r0) that best mimics the network
    on ``count`` sneak-path-affected arrays drawn under ``seed``."""
    grid = default_grid(params)  # an empty grid fails here, before the pool is drawn
    pool = generate_dataset(params, cfg, count, AFFECTED_ONLY, seed, q=q)
    # Undo the pool's own 1/r0 scale; hard_decide applies the model's normalizer.
    reads = (pool.inputs / (1.0 / params.r0)).reshape(-1, params.n, params.n)
    hard = [hard_decide(model, r) for r in reads]
    return derive_threshold(reads, hard, grid)


def train(model: MlpModel, dataset: Dataset, cfg: TrainConfig) -> list[float]:
    """Mini-batch Adam training; returns the per-epoch mean loss trace."""
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1]))
    state = AdamState.for_model(model)
    trace = []
    n = len(dataset)
    for _epoch in range(cfg.epochs):
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            dw, db, loss = backward(model, dataset.inputs[idx], dataset.labels[idx])
            if not np.isfinite(loss):
                raise FloatingPointError(f"non-finite training loss at step {state.t}")
            adam_step(model, dw, db, state, cfg)
            losses.append(loss)
        trace.append(float(np.mean(losses)))
    return trace


def save(model: MlpModel, path) -> None:
    """Versioned binary dump: magic, dims, row-major f64-LE parameters."""
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", model.n_layers))
        fh.write(struct.pack(f"<{len(model.dims)}I", *model.dims))
        for w, b in zip(model.weights, model.biases):
            fh.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(b, dtype="<f8").tobytes())
        fh.write(struct.pack("<d", model.normalizer))


def load(path) -> MlpModel:
    """Read a model written by :func:`save`; a length that does not match the dims, no
    layer, a zero dim or a normalizer that is not finite and positive is a ModelFileError."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(MAGIC):
        raise ModelFileError(f"{path}: not a model file (bad magic)")
    try:
        (n_layers,) = struct.unpack_from("<I", data, len(MAGIC))
        dims = list(struct.unpack_from(f"<{n_layers + 1}I", data, len(MAGIC) + 4))
    except struct.error as exc:
        raise ModelFileError(f"{path}: truncated model header") from exc
    if n_layers < 1 or 0 in dims:
        raise ModelFileError(f"{path}: dims {dims} need at least one layer and no zero size")
    start = len(MAGIC) + 4 * (n_layers + 2)
    expected = start + 8 * (sum((d_in + 1) * d_out for d_in, d_out in zip(dims, dims[1:])) + 1)
    if len(data) != expected:
        raise ModelFileError(f"{path}: {len(data)} bytes, expected {expected} for dims {dims}")
    flat = np.frombuffer(data, dtype="<f8", offset=start)
    weights, biases, pos = [], [], 0
    for d_in, d_out in zip(dims, dims[1:]):
        weights.append(flat[pos : pos + d_in * d_out].reshape(d_in, d_out).copy())
        pos += d_in * d_out
        biases.append(flat[pos : pos + d_out].copy())
        pos += d_out
    if not (np.isfinite(flat[pos]) and flat[pos] > 0.0):
        raise ModelFileError(f"{path}: input normalizer {flat[pos]} is not finite and positive")
    return MlpModel(dims=dims, weights=weights, biases=biases, normalizer=float(flat[pos]))
