"""Single-stage dilated temporal convolution backbone with per-group heads.

The network is a 1x1 input convolution followed by K residual blocks
(width-3 dilated convolution with dilation 2^l, ReLU, 1x1 projection,
dropout, residual add) and one linear classifier per group. It computes in
the parameter buffer's dtype (float32 unless a caller asks for another) on
features in the Fortran order of a loaded file; forward keeps a tape of
intermediates so backward can produce exact gradients for every parameter.
"""

from __future__ import annotations

import json
import os
import zipfile
from concurrent.futures import wait
from dataclasses import InitVar, dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .data import FeatureMatrix
from .data.io import from_json, parse_json, to_json, typed
from .errors import ConfigError, FormatError, TrainingError


@dataclass(frozen=True)
class BackboneConfig:
    """``seed`` seeds only ``init_params(cfg)`` without a generator. Training draws
    from the ``init`` substream of ``TrainConfig.seed``, which ``gtla train`` sets
    equal, so in a run the field is read only by ``--resume``'s config comparison."""

    in_dim: int
    hidden: int = 32
    num_layers: int = 6
    dropout: float = 0.25
    head_sizes: tuple[int, ...] = ()  # classes per group, `others` included
    seed: int = 0

    def __post_init__(self):
        for name, least in (("in_dim", 1), ("hidden", 1), ("num_layers", 1), ("seed", 0)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}, got {getattr(self, name)!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout!r}")
        if not self.head_sizes or any(h < 2 for h in self.head_sizes):
            raise ConfigError("every group head needs at least 2 classes")


@lru_cache(maxsize=16)
def _layout(cfg: BackboneConfig) -> tuple[tuple[str, tuple[int, ...], slice], ...]:
    """Name, shape and flat-buffer slice of every parameter tensor, in order."""
    shapes: list[tuple[str, tuple[int, ...]]] = [
        ("in.w", (cfg.hidden, cfg.in_dim)),
        ("in.b", (cfg.hidden,)),
    ]
    for layer in range(cfg.num_layers):
        shapes += [
            (f"layer{layer}.dilated.w", (cfg.hidden, cfg.hidden, 3)),
            (f"layer{layer}.dilated.b", (cfg.hidden,)),
            (f"layer{layer}.proj.w", (cfg.hidden, cfg.hidden)),
            (f"layer{layer}.proj.b", (cfg.hidden,)),
        ]
    for i, size in enumerate(cfg.head_sizes):
        shapes += [(f"head{i}.w", (cfg.hidden, size)), (f"head{i}.b", (size,))]
    ends = np.cumsum([np.prod(shape) for _, shape in shapes])
    return tuple((n, s, slice(end - np.prod(s), end)) for (n, s), end in zip(shapes, ends))


class FlatTensors(dict):
    """Named views into one contiguous buffer ``flat`` of ``dtype``; assign into a
    view (``t[name][...] = x``), since rebinding a name detaches it."""

    def __init__(self, cfg: BackboneConfig, tensors: dict[str, np.ndarray] | None = None,
                 dtype=np.float32):
        self.layout = _layout(cfg)
        self.flat = np.zeros(self.layout[-1][2].stop, dtype)
        super().__init__((name, self.flat[span].reshape(shape))
                         for name, shape, span in self.layout)
        for name, view in self.items() if tensors is not None else ():
            view[...] = np.reshape(tensors[name], view.shape)


@dataclass
class ModelParams:
    """Parameter tensors keyed by name (copied into FlatTensors of ``dtype``; None: zeros)."""

    cfg: BackboneConfig
    values: dict[str, np.ndarray] | None
    dtype: InitVar[type] = np.float32

    def __post_init__(self, dtype):
        self.values = FlatTensors(self.cfg, self.values, dtype)


def init_params(cfg: BackboneConfig, rng: np.random.Generator | None = None,
                dtype=np.float32) -> ModelParams:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) draws in float64, stored in ``dtype``,
    from ``rng``, or from ``cfg.seed`` when none is given (training passes one)."""
    rng = rng if rng is not None else np.random.default_rng(cfg.seed)
    fan_in = {"in": cfg.in_dim, "dilated": 3 * cfg.hidden}  # projections and heads: hidden
    values = {}
    for name, shape, _ in _layout(cfg):
        bound = 1.0 / np.sqrt(fan_in.get(name.split(".")[-2], cfg.hidden))
        values[name] = rng.uniform(-bound, bound, size=shape)
    return ModelParams(cfg, values, dtype)


@dataclass
class Tape:
    """Intermediates recorded by forward for the matching backward pass."""

    params: ModelParams
    x: np.ndarray
    layer_inputs: list[np.ndarray]  # zero-padded by the layer's dilation
    layer_relu: list[np.ndarray]  # ReLU of each dilated convolution
    layer_masks: list[np.ndarray | None]
    z: np.ndarray


@dataclass
class Forward:
    logits: list[np.ndarray]
    tape: Tape


def usable_cpus() -> int:
    """CPUs in this process's affinity mask, or 1 where the platform has none."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def submit(worker, fn, *args):  # under the caller's numpy error state, which a thread lacks
    return worker.submit(np.errstate(**np.geterr())(fn), *args)


def dropout_masks(cfg: BackboneConfig, rng: np.random.Generator, num_frames: int,
                  dtype=np.float32) -> np.ndarray | None:
    """Training's (layers, hidden, T) masks of 0 and 1/keep, or None (no draw) without dropout.
    One float64 draw for all layers yields the same values as one draw per layer."""
    if cfg.dropout == 0.0:
        return None
    keep, drawn = 1.0 - cfg.dropout, rng.random((cfg.num_layers, cfg.hidden, num_frames))
    return np.divide(np.less(drawn, keep, out=drawn), keep, out=drawn).astype(dtype, copy=False)


def forward(features: FeatureMatrix | np.ndarray, params: ModelParams,
            masks: np.ndarray | None = None) -> Forward:
    """Run the backbone and all group heads over one sequence. Dropout scales each layer's
    branch by its entry of ``masks`` (training, from :func:`dropout_masks`); without masks
    the pass is deterministic (evaluation)."""
    dtype = params.values.flat.dtype
    x = (np.asfortranarray(features.values, dtype=dtype) if isinstance(features, FeatureMatrix)
         else np.asarray(features).astype(dtype, copy=False))
    cfg = params.cfg
    if x.ndim != 2 or x.shape[0] != cfg.in_dim:
        raise ValueError(f"features must be {cfg.in_dim} x T, got {x.shape}")

    p, num_frames = params.values, x.shape[1]
    # Each layer input is written once, into the middle of its padded buffer;
    # only the d pad columns on each side are zeroed.
    pads = [2 ** layer for layer in range(cfg.num_layers)]
    layer_inputs = [np.empty((cfg.hidden, num_frames + 2 * d), dtype) for d in pads]
    for d, buf in zip(pads, layer_inputs):
        buf[:, :d] = buf[:, -d:] = 0.0
    inner = [buf[:, d:-d] for d, buf in zip(pads, layer_inputs)] + [None]
    z = np.add(p["in.w"] @ x, p["in.b"][:, None], out=inner[0])
    layer_relu, layer_masks = [], [None] * cfg.num_layers if masks is None else list(masks)
    for layer, d in enumerate(pads):
        # width-3 dilated convolution: tap k reads the padded input shifted by k * d
        padded, w = layer_inputs[layer], p[f"layer{layer}.dilated.w"]
        relu = w[:, :, 0] @ padded[:, :num_frames]
        for tap in (1, 2):
            relu += w[:, :, tap] @ padded[:, tap * d:tap * d + num_frames]
        relu += p[f"layer{layer}.dilated.b"][:, None]
        layer_relu.append(np.maximum(relu, 0.0, out=relu))
        branch = p[f"layer{layer}.proj.w"] @ relu
        branch += p[f"layer{layer}.proj.b"][:, None]
        if layer_masks[layer] is not None:
            branch *= layer_masks[layer]
        z = np.add(z, branch, out=inner[layer + 1])

    logits = [p[f"head{i}.w"].T @ z for i in range(len(cfg.head_sizes))]
    for i, s in enumerate(logits):
        s += p[f"head{i}.b"][:, None]
    return Forward(logits, Tape(params, x, layer_inputs, layer_relu, layer_masks, z))


def backward(tape: Tape, d_logits: list[np.ndarray], out: FlatTensors | None = None,
             worker=None) -> FlatTensors:
    """Propagate loss gradients w.r.t. the logits back to every parameter, into ``out`` if given
    (every tensor is overwritten) or a new buffer. A ``worker`` executor runs the weight-gradient
    blocks, same arithmetic; all have ended when this returns, or raises the first failure."""
    cfg, p = tape.params.cfg, tape.params.values
    if len(d_logits) != len(cfg.head_sizes):
        raise ValueError("one upstream gradient per group head required")
    grads = FlatTensors(cfg, dtype=p.flat.dtype) if out is None else out
    num_frames, tasks = tape.z.shape[1], []

    def run(block, *args):  # on the worker, if any
        return block(*args) if worker is None else tasks.append(submit(worker, block, *args))

    def linear(name, a, b, d_out):  # the weight's gradient is a @ b, the bias's d_out's row sums
        np.matmul(a, b, out=grads[f"{name}.w"])
        np.add.reduce(d_out, axis=1, out=grads[f"{name}.b"])

    def layer_weights(layer, d_branch, relu, d_pre, padded, d):
        linear(f"layer{layer}.proj", d_branch, relu.T, d_branch)
        d_w = grads[f"layer{layer}.dilated.w"]
        for tap in range(3):
            d_w[:, :, tap] = d_pre @ padded[:, tap * d:tap * d + num_frames].T
        np.add.reduce(d_pre, axis=1, out=grads[f"layer{layer}.dilated.b"])

    try:
        d_z = np.zeros_like(tape.z)
        for i, d_l in enumerate(d_logits):
            run(linear, f"head{i}", tape.z, d_l.T, d_l)
            d_z += p[f"head{i}.w"] @ d_l
        for layer in reversed(range(cfg.num_layers)):
            d = 2 ** layer
            mask = tape.layer_masks[layer]
            d_branch = d_z.copy() if mask is None else d_z * mask  # not d_z: a block may run late
            relu = tape.layer_relu[layer]
            d_pre = p[f"layer{layer}.proj.w"].T @ d_branch
            d_pre *= relu > 0.0
            padded, w = tape.layer_inputs[layer], p[f"layer{layer}.dilated.w"]
            run(layer_weights, layer, d_branch, relu, d_pre, padded, d)
            # d_in[:, t] = (P1[:, t] + P0[:, t + d]) + P2[:, t - d], Pk = w[:, :, k].T @ d_pre,
            # each term where its frame exists (the zero-padded sum's order). The shifted adds
            # run over the flat row-major arrays; the d columns of P0 and P2 that would wrap into
            # a neighbouring row (all when T <= d) are zeroed: +0.0 changes no matmul result.
            d_in = w[:, :, 1].T @ d_pre
            ahead, behind = w[:, :, 0].T @ d_pre, w[:, :, 2].T @ d_pre
            ahead[:, :d] = behind[:, -d:] = 0.0
            flat = d_in.reshape(-1)
            flat[:-d] += ahead.reshape(-1)[d:]
            flat[d:] += behind.reshape(-1)[:-d]
            d_z += d_in

        linear("in", d_z, tape.x.T, d_z)
    finally:
        wait(tasks)  # no block may still write into out once this returns or raises
    for task in tasks:
        task.result()
    return grads


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class AdamState:
    """Adam moments ``m`` and ``v`` laid out like the parameters, and the step count."""

    def __init__(self, cfg: BackboneConfig, t: int = 0, dtype=np.float32):
        self.m, self.v, self.t = FlatTensors(cfg, dtype=dtype), FlatTensors(cfg, dtype=dtype), t
        self._scratch = np.empty((2, self.m.flat.size), dtype)


def adam_step(params: ModelParams, grads: FlatTensors, state: AdamState, lr: float) -> None:
    """One Adam update, in place over the flat buffers, per element in the order
    m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g, p -= (lr*m_hat) / (sqrt(v_hat) + eps)."""
    g = grads.flat
    if not np.isfinite(g).all():
        name = next(n for n, arr in grads.items() if not np.isfinite(arr).all())
        raise TrainingError(f"non-finite gradient in {name!r} at step {state.t + 1}")
    state.t += 1
    m, v, (a, b) = state.m.flat, state.v.flat, state._scratch
    np.add(np.multiply(m, ADAM_BETA1, out=m), np.multiply(g, 1.0 - ADAM_BETA1, out=a), out=m)
    np.multiply(np.multiply(g, 1.0 - ADAM_BETA2, out=a), g, out=a)
    np.add(np.multiply(v, ADAM_BETA2, out=v), a, out=v)
    np.multiply(np.divide(m, 1.0 - ADAM_BETA1 ** state.t, out=a), lr, out=a)
    np.add(np.sqrt(np.divide(v, 1.0 - ADAM_BETA2 ** state.t, out=b), out=b), ADAM_EPS, out=b)
    params.values.flat -= np.divide(a, b, out=a)


def save_checkpoint(path: str | Path, params: ModelParams, step: int = 0,
                    adam: AdamState | None = None, extra: dict | None = None) -> None:
    """An uncompressed ``.npz`` of a JSON ``header`` (0-d bytes) and the flat ``params``,
    ``m`` and ``v`` buffers as float32; each member has a CRC-32, the bytes no timestamp."""
    adam = adam if adam is not None else AdamState(params.cfg)
    header = {"version": 3, "config": to_json(params.cfg), "step": step,
              "adam_t": adam.t, "extra": extra or {}}
    text = json.dumps(header, sort_keys=True, allow_nan=False)  # a NaN raises ValueError here
    with np.errstate(over="ignore"):  # an overflowing cast gives inf, refused below
        flats = {name: flat.astype("<f4") for name, flat in
                 (("params", params.values.flat), ("m", adam.m.flat), ("v", adam.v.flat))}
    for name, flat in flats.items():
        if not np.isfinite(flat).all():
            raise TrainingError(f"{path}: {name!r} has values that are not finite in float32")
    with open(path, "wb") as fh:  # a handle, so numpy does not append ".npz"
        np.savez(fh, header=np.array(text.encode()), **flats)


@np.errstate(over="ignore")  # a member's cast to float32 may overflow to inf, refused below
def load_checkpoint(path: str | Path) -> tuple[ModelParams, AdamState, dict]:
    """Float32 params, Adam state and extra header dict; damage raises one ``FormatError``."""
    with open(path, "rb") as fh:  # closing it releases the archive too
        try:
            npz = np.lib.npyio.NpzFile(fh)
            header = parse_json(npz["header"].item())
            if header["version"] != 3:
                raise ValueError(f"header version {header['version']!r}, not 3")
            cfg = from_json(BackboneConfig, header["config"], "header: config", every_key=True)
            adam_t, step = (typed(header[key], int, "header", key) for key in ("adam_t", "step"))
            params, adam = ModelParams(cfg, None), AdamState(cfg, adam_t)
            for name, flat in (("params", params.values.flat), ("m", adam.m.flat), ("v", adam.v.flat)):
                if (stored := npz[name]).dtype.kind != "f":  # complex, int or bool would cast
                    raise ValueError(f"member {name!r} has dtype {stored.dtype}, not a float")
                if stored.shape != flat.shape:  # it would broadcast
                    raise ValueError(f"member {name!r} has shape {stored.shape}, not {flat.shape}")
                flat[...] = stored
                if not np.isfinite(flat).all():  # what save_checkpoint refuses to write
                    raise ValueError(f"member {name!r} has values that are not finite")
            extra = {**header["extra"], "step": step}
        # flipped zip metadata can raise OSError, NotImplementedError or RuntimeError
        except (zipfile.BadZipFile, EOFError, OSError, RuntimeError, ValueError, KeyError,
                TypeError, RecursionError, ConfigError) as exc:
            raise FormatError(f"{path}: not a checkpoint, or a damaged one "
                              f"({type(exc).__name__}: {exc})") from exc
    return params, adam, extra
