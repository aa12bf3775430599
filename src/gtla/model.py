"""Single-stage dilated temporal convolution backbone with per-group heads.

The network is a 1x1 input convolution followed by K residual blocks
(width-3 dilated convolution with dilation 2^l, ReLU, 1x1 projection,
dropout, residual add) and one linear classifier per group. Everything
runs in float64; forward keeps a tape of intermediates so that backward
can produce exact gradients for every parameter.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .data import FeatureMatrix
from .errors import ConfigError, FormatError, TrainingError

CHECKPOINT_MAGIC = b"GTLACKPT"


@dataclass(frozen=True)
class BackboneConfig:
    in_dim: int
    hidden: int = 32
    num_layers: int = 6
    dropout: float = 0.25
    head_sizes: tuple[int, ...] = ()  # classes per group, `others` included
    seed: int = 0

    def __post_init__(self):
        if self.in_dim < 1 or self.hidden < 1 or self.num_layers < 1:
            raise ConfigError("in_dim, hidden and num_layers must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must be in [0, 1)")
        if not self.head_sizes or any(h < 2 for h in self.head_sizes):
            raise ConfigError("every group head needs at least 2 classes")

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(payload: dict) -> "BackboneConfig":
        return BackboneConfig(**{**payload, "head_sizes": tuple(payload["head_sizes"])})


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
    """Named views into one contiguous float64 buffer ``flat``; assign into a
    view (``t[name][...] = x``), since rebinding a name detaches it."""

    def __init__(self, cfg: BackboneConfig, tensors: dict[str, np.ndarray] | None = None):
        self.layout = _layout(cfg)
        self.flat = np.zeros(self.layout[-1][2].stop)
        super().__init__((name, self.flat[span].reshape(shape))
                         for name, shape, span in self.layout)
        for name, view in self.items() if tensors is not None else ():
            view[...] = np.reshape(tensors[name], view.shape)


@dataclass
class ModelParams:
    """Parameter tensors keyed by name (copied into FlatTensors), plus their config."""

    cfg: BackboneConfig
    values: dict[str, np.ndarray]

    def __post_init__(self):
        self.values = FlatTensors(self.cfg, self.values)

    def copy(self) -> "ModelParams":
        return ModelParams(self.cfg, self.values)


def init_params(cfg: BackboneConfig, rng: np.random.Generator | None = None) -> ModelParams:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) initialization of every tensor."""
    rng = rng if rng is not None else np.random.default_rng(cfg.seed)
    fan_in = {"in": cfg.in_dim, "dilated": 3 * cfg.hidden, "proj": cfg.hidden,
              "head": cfg.hidden}
    values = {}
    for name, shape, _ in _layout(cfg):
        kind = name.split(".")[-2]
        kind = "head" if kind.startswith("head") else kind
        bound = 1.0 / np.sqrt(fan_in.get(kind, cfg.hidden))
        values[name] = rng.uniform(-bound, bound, size=shape)
    return ModelParams(cfg, values)


def _dilated_conv(padded: np.ndarray, w: np.ndarray, b: np.ndarray, d: int) -> np.ndarray:
    # padded: C_in x (T + 2d) input with d zero frames each side, w: C_out x C_in x 3
    num_frames = padded.shape[1] - 2 * d
    out = (w[:, :, 0] @ padded[:, :num_frames]
           + w[:, :, 1] @ padded[:, d:d + num_frames]
           + w[:, :, 2] @ padded[:, 2 * d:2 * d + num_frames])
    return out + b[:, None]


def _dilated_conv_backward(padded: np.ndarray, w: np.ndarray, d_out: np.ndarray,
                           d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    num_frames = padded.shape[1] - 2 * d
    d_w = np.empty_like(w)
    d_w[:, :, 0] = d_out @ padded[:, :num_frames].T
    d_w[:, :, 1] = d_out @ padded[:, d:d + num_frames].T
    d_w[:, :, 2] = d_out @ padded[:, 2 * d:2 * d + num_frames].T
    d_b = d_out.sum(axis=1)
    d_padded = np.zeros_like(padded)
    d_padded[:, :num_frames] += w[:, :, 0].T @ d_out
    d_padded[:, d:d + num_frames] += w[:, :, 1].T @ d_out
    d_padded[:, 2 * d:2 * d + num_frames] += w[:, :, 2].T @ d_out
    return d_w, d_b, d_padded[:, d:d + num_frames]


@dataclass
class Tape:
    """Intermediates recorded by forward for the matching backward pass."""

    params: ModelParams
    x: np.ndarray
    layer_inputs: list[np.ndarray]  # zero-padded by the layer's dilation
    layer_pre: list[np.ndarray]
    layer_masks: list[np.ndarray | None]
    z: np.ndarray


@dataclass
class Forward:
    logits: list[np.ndarray]
    tape: Tape


def forward(features: FeatureMatrix | np.ndarray, params: ModelParams,
            mode: str = "eval", dropout_rng: np.random.Generator | None = None) -> Forward:
    """Run the backbone and all group heads over one sequence.

    ``mode`` is "train" or "eval"; dropout fires only in train mode and
    draws its masks from ``dropout_rng``.
    """
    x = features.values if isinstance(features, FeatureMatrix) else np.asarray(features)
    x = x.astype(np.float64, copy=False)
    cfg = params.cfg
    if x.ndim != 2 or x.shape[0] != cfg.in_dim:
        raise ValueError(f"features must be {cfg.in_dim} x T, got {x.shape}")
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown mode {mode!r}")
    train = mode == "train"
    if train and cfg.dropout > 0.0 and dropout_rng is None:
        raise ValueError("train mode with dropout needs a dropout_rng")

    p = params.values
    # Each layer input is written once, into the middle of its zero-padded buffer.
    pads = [2 ** layer for layer in range(cfg.num_layers)]
    layer_inputs = [np.zeros((cfg.hidden, x.shape[1] + 2 * d)) for d in pads]
    inner = [buf[:, d:-d] for d, buf in zip(pads, layer_inputs)] + [None]
    z = np.add(p["in.w"] @ x, p["in.b"][:, None], out=inner[0])
    layer_pre, layer_masks = [], []
    for layer, d in enumerate(pads):
        pre = _dilated_conv(layer_inputs[layer], p[f"layer{layer}.dilated.w"],
                            p[f"layer{layer}.dilated.b"], d)
        layer_pre.append(pre)
        branch = p[f"layer{layer}.proj.w"] @ np.maximum(pre, 0.0) \
            + p[f"layer{layer}.proj.b"][:, None]
        if train and cfg.dropout > 0.0:
            keep = 1.0 - cfg.dropout
            mask = (dropout_rng.random(branch.shape) < keep) / keep
            branch = branch * mask
        else:
            mask = None
        layer_masks.append(mask)
        z = np.add(z, branch, out=inner[layer + 1])

    logits = [p[f"head{i}.w"].T @ z + p[f"head{i}.b"][:, None]
              for i in range(len(cfg.head_sizes))]
    return Forward(logits, Tape(params, x, layer_inputs, layer_pre, layer_masks, z))


def backward(tape: Tape, d_logits: list[np.ndarray]) -> FlatTensors:
    """Propagate loss gradients w.r.t. the logits back to every parameter."""
    cfg = tape.params.cfg
    p = tape.params.values
    if len(d_logits) != len(cfg.head_sizes):
        raise ValueError("one upstream gradient per group head required")
    grads = FlatTensors(cfg)

    d_z = np.zeros_like(tape.z)
    for i, d_l in enumerate(d_logits):
        grads[f"head{i}.w"][...] = tape.z @ d_l.T
        grads[f"head{i}.b"][...] = d_l.sum(axis=1)
        d_z += p[f"head{i}.w"] @ d_l

    for layer in reversed(range(cfg.num_layers)):
        d = 2 ** layer
        mask = tape.layer_masks[layer]
        d_branch = d_z if mask is None else d_z * mask
        relu_out = np.maximum(tape.layer_pre[layer], 0.0)
        grads[f"layer{layer}.proj.w"][...] = d_branch @ relu_out.T
        grads[f"layer{layer}.proj.b"][...] = d_branch.sum(axis=1)
        d_relu = p[f"layer{layer}.proj.w"].T @ d_branch
        d_pre = d_relu * (tape.layer_pre[layer] > 0.0)
        d_w, d_b, d_in = _dilated_conv_backward(tape.layer_inputs[layer],
                                                p[f"layer{layer}.dilated.w"],
                                                d_pre, d)
        grads[f"layer{layer}.dilated.w"][...] = d_w
        grads[f"layer{layer}.dilated.b"][...] = d_b
        d_z = d_z + d_in

    grads["in.w"][...] = d_z @ tape.x.T
    grads["in.b"][...] = d_z.sum(axis=1)
    return grads


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class AdamState:
    """Adam moments ``m`` and ``v`` laid out like the parameters, and the step count."""

    def __init__(self, cfg: BackboneConfig, t: int = 0):
        self.m, self.v, self.t = FlatTensors(cfg), FlatTensors(cfg), t
        self._scratch = np.empty((2, self.m.flat.size))


def adam_step(params: ModelParams, grads: FlatTensors, state: AdamState,
              lr: float = 5e-4) -> None:
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
    """JSON header plus a float32 little-endian parameter blob."""
    tensors = []
    blobs = []
    offset = 0

    def add(name, arr):
        nonlocal offset
        raw = np.ascontiguousarray(arr, dtype="<f4").tobytes()
        tensors.append({"name": name, "shape": list(arr.shape), "offset": offset})
        blobs.append(raw)
        offset += len(raw)

    for name, arr in params.values.items():
        add(name, arr)
    if adam is not None and adam.t > 0:
        for name, arr in adam.m.items():
            add(f"adam.m.{name}", arr)
        for name, arr in adam.v.items():
            add(f"adam.v.{name}", arr)
    header = {
        "version": 1,
        "config": params.cfg.to_dict(),
        "step": step,
        "adam_t": adam.t if adam is not None else 0,
        "tensors": tensors,
        "extra": extra or {},
    }
    head_raw = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(head_raw)))
        fh.write(head_raw)
        for raw in blobs:
            fh.write(raw)


def load_checkpoint(path: str | Path) -> tuple[ModelParams, AdamState, dict]:
    """Load params, optimizer state and the extra header dict."""
    blob = Path(path).read_bytes()
    if blob[:len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: not a checkpoint file")
    head_start = len(CHECKPOINT_MAGIC) + 4
    # A cut length field still decodes; the body start then lies past EOF.
    body_start = head_start + int.from_bytes(blob[len(CHECKPOINT_MAGIC):head_start], "little")
    if len(blob) < body_start:
        raise FormatError(f"{path}: truncated header")
    try:
        header = json.loads(blob[head_start:body_start].decode("utf-8"))
        cfg = BackboneConfig.from_dict(header["config"])
        arrays = {}
        for spec in header["tensors"]:
            size = int(np.prod(spec["shape"])) if spec["shape"] else 1
            start = body_start + spec["offset"]
            if len(blob) < start + 4 * size:
                raise FormatError(f"{path}: truncated tensor {spec['name']!r}")
            flat = np.frombuffer(blob, dtype="<f4", count=size, offset=start)
            arrays[spec["name"]] = flat.reshape(spec["shape"]).astype(np.float64)
        params = ModelParams(cfg, arrays)
        adam = AdamState(cfg, t=int(header.get("adam_t", 0)))
        if adam.t:  # save_checkpoint writes every moment tensor once Adam has stepped
            for prefix, moment in (("adam.m.", adam.m), ("adam.v.", adam.v)):
                for name, view in moment.items():
                    view[...] = np.reshape(arrays[prefix + name], view.shape)
        extra = {**header["extra"], "step": header.get("step", 0)}
    except (ValueError, KeyError, TypeError, ConfigError) as exc:
        raise FormatError(f"{path}: invalid checkpoint header "
                          f"({type(exc).__name__}: {exc})") from exc
    return params, adam, extra

