"""Sequence-at-a-time training of the backbone with Adam.

All randomness (initialization, dropout masks, epoch shuffling) flows from
the single training seed through named substreams, so runs are exactly
reproducible and ablations differ only in the intended factor.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .data import Corpus
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
    forward,
    init_params,
)
from .priors import TemporalPrior

log = logging.getLogger(__name__)

# Fixed offsets carving independent seed streams out of one training seed.
_STREAMS = {"init": 0, "dropout": 1, "order": 2}


def _substream(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_STREAMS[name],)))


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
        self.grads = FlatTensors(self.params.cfg)

    def rng_payload(self) -> dict:
        return {
            "dropout": self.dropout_rng.bit_generator.state,
            "order": self.order_rng.bit_generator.state,
            "epoch": self.epoch,
            "history": self.history,
        }

    @staticmethod
    def restore(params: ModelParams, adam: AdamState, payload: dict) -> "TrainState":
        """The state ``rng_payload`` recorded; each of its four keys is required."""
        if not isinstance(payload, dict) or not {"dropout", "order", "epoch",
                                                 "history"} <= payload.keys():
            raise FormatError("train_state needs 'dropout', 'order', 'epoch' and 'history'")
        epoch, history = payload["epoch"], payload["history"]
        if type(epoch) is not int or not isinstance(history, list) or not all(
                type(x) is int or type(x) is float and np.isfinite(x) for x in history):
            raise FormatError("train_state needs an int 'epoch' and finite numbers as 'history'")
        state = TrainState(params, adam, np.random.default_rng(0), np.random.default_rng(0),
                           epoch=epoch, history=list(history))
        try:
            for key, rng in (("dropout", state.dropout_rng), ("order", state.order_rng)):
                rng.bit_generator.state = payload[key]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise FormatError(f"train_state: {key!r} is not a bit generator state "
                              f"({type(exc).__name__}: {exc})") from exc
        return state


def init_train_state(train_cfg: TrainConfig, backbone: BackboneConfig) -> TrainState:
    return TrainState(init_params(backbone, _substream(train_cfg.seed, "init")),
                      AdamState(backbone), _substream(train_cfg.seed, "dropout"),
                      _substream(train_cfg.seed, "order"))


def train_epoch(state: TrainState, train: Corpus, spec: GroupSpec,
                prior: TemporalPrior, cfg: TrainConfig) -> float:
    """One pass over the corpus in shuffled order; returns the mean loss."""
    order = state.order_rng.permutation(len(train.sequences))
    total = 0.0
    for seq, x in train.widened(order):
        k = spec.group_of(seq)
        local = relabel_for_group(seq, spec, k)
        out = forward(x, state.params, dropout_rng=state.dropout_rng)
        loss, d_logits, _ = total_loss(out.logits, local, k, spec, prior, cfg)
        grads = backward(out.tape, d_logits, out=state.grads)
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
