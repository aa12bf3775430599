"""Training objectives with exact gradients w.r.t. the logits.

Covers plain frame-wise cross-entropy, the clipped log-probability
smoothing penalty, prior-offset logit adjustment, and the group-wise
temporally-gated variant. All losses are training-time only; inference
decodes unadjusted probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data.io import to_json
from .errors import ConfigError
from .grouping import GroupSpec
from .priors import GroupPrior, TemporalPrior, clamped_log, temporal_factor_matrix

METHODS = ("ce", "la", "gtla")


@dataclass(frozen=True)
class TrainConfig:
    method: str = "gtla"
    tau: float = 0.5
    eta: float = 0.5
    smooth_weight: float = 0.15
    smooth_clip: float = 4.0
    epochs: int = 50
    lr: float = 5e-4
    seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")
        for name in ("tau", "eta", "smooth_weight", "smooth_clip", "lr"):
            value, positive = getattr(self, name), name in ("smooth_clip", "lr")
            if not (np.isfinite(value) and (value > 0 if positive else value >= 0)):
                raise ConfigError(f"{name} must be finite and {'>' if positive else '>='} 0, "
                                  f"got {value!r}")
        for name, least in (("epochs", 1), ("seed", 0)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}, got {getattr(self, name)!r}")

    def to_dict(self) -> dict:
        return to_json(self)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - np.maximum.reduce(logits, axis=0, keepdims=True)
    shifted -= np.log(np.add.reduce(np.exp(shifted), axis=0, keepdims=True))
    return shifted


def softmax(logits: np.ndarray) -> np.ndarray:
    return np.exp(log_softmax(logits))


def _log_softmax_exp(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    log_p = log_softmax(logits)
    return log_p, np.exp(log_p)


def _ce(log_p: np.ndarray, p: np.ndarray, labels) -> tuple[float, np.ndarray]:
    """Mean frame-wise cross-entropy and its logit gradient, from a head's
    log-softmax and its exp; ``labels`` is one class per frame or one for all."""
    frames = np.arange(log_p.shape[1])
    grad = p.copy()
    grad[labels, frames] -= 1.0
    grad /= frames.size
    return float(-(np.add.reduce(log_p[labels, frames]) / frames.size)), grad


def ce_loss(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean frame-wise cross-entropy and its gradient w.r.t. the logits."""
    return _ce(*_log_softmax_exp(logits), np.asarray(labels))


def smoothing_loss(log_probs: np.ndarray, clip: float) -> tuple[float, np.ndarray]:
    """Mean squared clipped log-probability difference between adjacent frames.

    Differences above the clip contribute clip**2 with zero gradient. The
    gradient is returned w.r.t. the log-probabilities.
    """
    grad = np.zeros_like(log_probs)
    if log_probs.shape[1] < 2:
        return 0.0, grad
    diff = log_probs[:, 1:] - log_probs[:, :-1]
    mag = np.abs(diff)
    clipped = np.minimum(mag, clip)
    loss = float(np.add.reduce(np.square(clipped, out=clipped), axis=None) / diff.size)
    d_diff = np.divide(np.multiply(diff, 2.0, out=diff), diff.size, out=diff)
    np.putmask(d_diff, ~(mag <= clip), 0.0)  # a NaN difference counts as clipped
    grad[:, 1:] += d_diff
    grad[:, :-1] -= d_diff
    return loss, grad


def la_loss(logits: np.ndarray, labels: np.ndarray, prior: np.ndarray,
            tau: float) -> tuple[float, np.ndarray]:
    """Cross-entropy on prior-offset logits s + tau * log p(class) (Menon et
    al. 2021); the gradient flows through the softmax of the adjusted logits."""
    return ce_loss((logits + tau * clamped_log(prior)[:, None]).astype(logits.dtype), labels)


def gtla_adjust(logits: np.ndarray, labels: np.ndarray, prior: GroupPrior,
                tau: float, temporal_factor: bool = True) -> np.ndarray:
    """Adjust the target group's logits; the ``others`` row is untouched.

    Each real class c is offset by tau * factor * log p(c). The factor is 1
    without the temporal factor (the ``la`` offset); with it, frames outside
    a class's bounds receive the true label's adjustment instead of the
    class's own, which cancels the margin shift there.
    """
    out = logits.copy()
    factor = temporal_factor_matrix(labels, prior) if temporal_factor else 1.0
    out[:prior.num_classes] += tau * (factor * prior.clamped_log_prior()[:, None])
    return out


def gtla_loss(logits: list[np.ndarray], labels: np.ndarray, k: int, spec: GroupSpec,
              prior: TemporalPrior, cfg: TrainConfig,
              ) -> tuple[float, list[np.ndarray]]:
    """Group-wise classification loss of one training sequence: ``total_loss``
    without the smoothing penalty."""
    return total_loss(logits, labels, k, spec, prior, replace(cfg, smooth_weight=0.0))[:2]


def total_loss(logits: list[np.ndarray], labels: np.ndarray, k: int, spec: GroupSpec,
               prior: TemporalPrior, cfg: TrainConfig,
               ) -> tuple[float, list[np.ndarray], dict[str, float]]:
    """The G-TLA objective of one training sequence, in one pass over the heads.

    Target group k: size-weighted cross-entropy on (method-dependent)
    adjusted logits at the sequence's local labels. Every other group:
    eta-weighted cross-entropy toward its ``others`` class. Every group: the
    smoothing penalty on its unadjusted log-softmax, averaged over groups and
    weighted by ``smooth_weight``. One loop over the heads adds each head's two
    terms from one log-softmax and its exp. The target term comes before it, so
    the loss is summed target term first, then the ``others`` terms by head
    index, then smoothing; another order changes its last bit.
    """
    labels = np.asarray(labels)
    heads = [_log_softmax_exp(s) for s in logits]
    target = heads[k]
    if cfg.method != "ce":  # "la" is G-TLA without the temporal factor
        target = _log_softmax_exp(gtla_adjust(logits[k], labels, prior.groups[k], cfg.tau,
                                              temporal_factor=cfg.method == "gtla"))
    alpha = spec.group_weights[k]
    loss, target_grad = _ce(*target, labels)
    loss *= alpha
    target_grad *= alpha
    grads, smooth_total, scale = [], 0.0, cfg.smooth_weight / spec.n
    for i, (log_p, p) in enumerate(heads):
        grad = target_grad
        if i != k:
            term, grad = _ce(log_p, p, spec.others_id(i))
            loss += cfg.eta * term
            grad *= cfg.eta
        if cfg.smooth_weight > 0.0:
            term, d_log_p = smoothing_loss(log_p, cfg.smooth_clip)
            smooth_total += term
            d_log_p -= p * np.add.reduce(d_log_p, axis=0, keepdims=True)
            grad += np.multiply(d_log_p, scale, out=d_log_p)
        grads.append(grad)
    parts = {"classification": float(loss), "smoothing": smooth_total / spec.n}
    loss += cfg.smooth_weight * parts["smoothing"]
    return float(loss), grads, parts
