"""Sequence-at-a-time training of the backbone with Adam.

All randomness (initialization, dropout masks, epoch shuffling) flows from
the single training seed through named substreams, so runs are exactly
reproducible and ablations differ only in the intended factor.
"""

from __future__ import annotations

import logging
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .data import Corpus
from .data.io import from_json, to_json
from .errors import FormatError, TrainingError
from .grouping import GroupSpec, relabel_for_group
from .losses import TrainConfig, total_loss
from .model import (
    AdamState,
    BackboneConfig,
    FlatTensors,
    ModelParams,
    adam_step,
    backward,
    dropout_masks,
    forward,
    init_params,
    submit,
    usable_cpus,
)
from .priors import TemporalPrior

log = logging.getLogger(__name__)

# Fixed offsets carving independent seed streams out of one training seed.
_STREAMS = {"init": 0, "dropout": 1, "order": 2}

# Steps of this many frames or more share their work with a worker thread if a second CPU is
# usable and these variables, read by numpy's BLAS at import, all pin BLAS to one thread (with
# more, overlap ran 0.78-0.89x as fast). Calibrated at hidden 32 only: 0.99x at 513, 1.04x at 661.
OVERLAP_MIN_FRAMES = 600
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _substream(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_STREAMS[name],)))


@dataclass(frozen=True)
class SavedState:
    """The ``train_state`` of a checkpoint header: generator states, epochs and losses."""

    dropout: dict
    order: dict
    epoch: int
    history: tuple[float, ...]


@dataclass
class TrainState:
    params: ModelParams
    adam: AdamState
    dropout_rng: np.random.Generator
    order_rng: np.random.Generator
    epoch: int = 0
    history: list[float] = field(default_factory=list)
    grads: FlatTensors = field(init=False, repr=False)  # reused by every step

    def __post_init__(self):
        self.grads = FlatTensors(self.params.cfg, dtype=self.params.values.flat.dtype)

    def rng_payload(self) -> dict:
        return to_json(SavedState(self.dropout_rng.bit_generator.state,
                                  self.order_rng.bit_generator.state, self.epoch,
                                  tuple(self.history)))

    @staticmethod
    def restore(params: ModelParams, adam: AdamState, payload: dict) -> "TrainState":
        """The state ``rng_payload`` recorded, read as a :class:`SavedState`."""
        saved = from_json(SavedState, payload, "train_state")
        if not np.isfinite(saved.history).all():
            raise FormatError("train_state needs finite numbers as 'history'")
        state = TrainState(params, adam, np.random.default_rng(0), np.random.default_rng(0),
                           epoch=saved.epoch, history=list(saved.history))
        try:
            for key, rng in (("dropout", state.dropout_rng), ("order", state.order_rng)):
                rng.bit_generator.state = getattr(saved, key)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise FormatError(f"train_state: {key!r} is not a bit generator state "
                              f"({type(exc).__name__}: {exc})") from exc
        return state


def init_train_state(train_cfg: TrainConfig, backbone: BackboneConfig) -> TrainState:
    return TrainState(init_params(backbone, _substream(train_cfg.seed, "init")),
                      AdamState(backbone), _substream(train_cfg.seed, "dropout"),
                      _substream(train_cfg.seed, "order"))


@np.errstate(over="ignore", invalid="ignore")  # adam_step or the check below reports it
def train_epoch(state: TrainState, train: Corpus, spec: GroupSpec,
                prior: TemporalPrior, cfg: TrainConfig) -> float:
    """One pass over the corpus in shuffled order; returns the mean loss. Long steps share
    work with a worker thread, ended on return; arithmetic and draws are in serial order."""
    order = state.order_rng.permutation(len(train.sequences))
    net, dtype = state.params.cfg, state.params.values.flat.dtype
    overlap = usable_cpus() > 1 and all(os.environ.get(var) == "1" for var in BLAS_THREAD_VARS)
    total, pending = 0.0, None  # pending: the worker's draw of this step's masks
    with ThreadPoolExecutor(1) as pool:  # which starts its thread at the first submit
        for step, idx in enumerate(order):
            seq = train.sequences[idx]
            k = spec.group_of(seq)
            local = relabel_for_group(seq, spec, k)
            masks = (dropout_masks(net, state.dropout_rng, seq.num_frames, dtype)
                     if pending is None else pending.result())
            worker = pool if overlap and seq.num_frames >= OVERLAP_MIN_FRAMES else None
            pending = (submit(worker, dropout_masks, net, state.dropout_rng,
                              train.sequences[order[step + 1]].num_frames, dtype)
                       if worker and step + 1 < len(order) else None)  # never past the last step
            out = forward(train.features[idx], state.params, masks=masks)
            loss, d_logits, _ = total_loss(out.logits, local, k, spec, prior, cfg)
            grads = backward(out.tape, d_logits, out=state.grads, worker=worker)
            adam_step(state.params, grads, state.adam, lr=cfg.lr)
            total += loss
    for name, flat in (("parameters", state.params.values.flat), ("Adam m", state.adam.m.flat),
                       ("Adam v", state.adam.v.flat)):
        if not np.isfinite(flat).all():  # adam_step checks only the gradient
            raise TrainingError(f"epoch {state.epoch + 1}: {name} overflowed to non-finite values")
    state.epoch += 1
    mean = total / len(train.sequences)
    state.history.append(mean)
    return mean


def train_model(train: Corpus, spec: GroupSpec, prior: TemporalPrior,
                backbone: BackboneConfig, cfg: TrainConfig,
                state: TrainState | None = None) -> TrainState:
    """Train for cfg.epochs total epochs (continuing from ``state`` if given)."""
    if state is None:
        state = init_train_state(cfg, backbone)
    while state.epoch < cfg.epochs:
        mean = train_epoch(state, train, spec, prior, cfg)
        log.info("epoch %d/%d: loss %.4f", state.epoch, cfg.epochs, mean)
    return state
