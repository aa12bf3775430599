"""Training objectives with exact gradients w.r.t. the logits.

Covers plain frame-wise cross-entropy, the clipped log-probability
smoothing penalty, prior-offset logit adjustment, and the group-wise
temporally-gated variant. All losses are training-time only; inference
decodes unadjusted probabilities.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError
from .grouping import GroupSpec
from .priors import PRIOR_CLAMP, GroupPrior, TemporalPrior, temporal_factor_matrix

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
        if self.tau < 0 or self.eta < 0 or self.smooth_weight < 0:
            raise ConfigError("tau, eta and smooth_weight must be >= 0")
        if self.smooth_clip <= 0:
            raise ConfigError("smooth_clip must be > 0")

    def to_dict(self) -> dict:
        return asdict(self)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=0, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=0, keepdims=True))


def softmax(logits: np.ndarray) -> np.ndarray:
    return np.exp(log_softmax(logits))


def ce_loss(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean frame-wise cross-entropy and its gradient w.r.t. the logits."""
    labels = np.asarray(labels)
    num_frames = labels.size
    log_p = log_softmax(logits)
    loss = -log_p[labels, np.arange(num_frames)].mean()
    grad = np.exp(log_p)
    grad[labels, np.arange(num_frames)] -= 1.0
    return float(loss), grad / num_frames


def smoothing_loss(log_probs: np.ndarray, clip: float = 4.0) -> tuple[float, np.ndarray]:
    """Mean squared clipped log-probability difference between adjacent frames.

    Differences above the clip contribute clip**2 with zero gradient. The
    gradient is returned w.r.t. the log-probabilities.
    """
    num_classes, num_frames = log_probs.shape
    grad = np.zeros_like(log_probs)
    if num_frames < 2:
        return 0.0, grad
    diff = log_probs[:, 1:] - log_probs[:, :-1]
    mag = np.abs(diff)
    clipped = np.minimum(mag, clip)
    count = num_classes * (num_frames - 1)
    loss = float(np.sum(clipped ** 2) / count)
    d_diff = np.where(mag <= clip, 2.0 * diff, 0.0) / count
    grad[:, 1:] += d_diff
    grad[:, :-1] -= d_diff
    return loss, grad


def la_loss(logits: np.ndarray, labels: np.ndarray, prior: np.ndarray, tau: float,
            adjust_mask: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """Cross-entropy on prior-offset logits: s + tau * log p(class).

    ``adjust_mask`` marks which rows receive the offset (all by default);
    the gradient flows through the softmax of the adjusted logits.
    """
    prior = np.clip(np.asarray(prior, dtype=np.float64), PRIOR_CLAMP, 1.0 - PRIOR_CLAMP)
    offset = tau * np.log(prior)
    if adjust_mask is not None:
        offset = np.where(adjust_mask, offset, 0.0)
    return ce_loss(logits + offset[:, None], labels)


def gtla_adjust(logits: np.ndarray, labels: np.ndarray, prior: GroupPrior,
                tau: float, temporal_factor: bool = True) -> np.ndarray:
    """Adjust the target group's logits; the ``others`` row is untouched.

    With the temporal factor on, frames outside a class's bounds receive
    the true label's adjustment instead of the class's own, which cancels
    the margin shift there.
    """
    labels = np.asarray(labels)
    num_real = prior.num_classes
    out = logits.astype(np.float64).copy()
    if tau == 0.0:
        return out
    if temporal_factor:
        adjust = temporal_factor_matrix(labels, prior) * prior.clamped_log_prior()[:, None]
    else:
        adjust = np.broadcast_to(prior.clamped_log_prior()[:, None],
                                 (num_real, labels.size))
    out[:num_real] += tau * adjust
    return out


def gtla_loss(logits: list[np.ndarray], labels: np.ndarray, k: int, spec: GroupSpec,
              prior: TemporalPrior, cfg: TrainConfig,
              ) -> tuple[float, list[np.ndarray]]:
    """Group-wise classification loss of one training sequence.

    Target group k: size-weighted cross-entropy on (method-dependent)
    adjusted logits at the sequence's local labels. Every other group:
    eta-weighted cross-entropy pushing its ``others`` class, on unadjusted
    logits.
    """
    labels = np.asarray(labels)
    group_prior = prior.groups[k]
    if cfg.method == "ce":
        target = logits[k]
    else:  # "la" is G-TLA without the temporal factor
        target = gtla_adjust(logits[k], labels, group_prior, cfg.tau,
                             temporal_factor=cfg.method == "gtla")
    alpha = spec.group_weights[k]
    loss, grad_k = ce_loss(target, labels)
    loss *= alpha
    grads = [np.zeros_like(l) for l in logits]
    grads[k] = alpha * grad_k
    for i in range(spec.n):
        if i == k:
            continue
        others = np.full(labels.size, spec.others_id(i), dtype=np.int64)
        li, gi = ce_loss(logits[i], others)
        loss += cfg.eta * li
        grads[i] = cfg.eta * gi
    return float(loss), grads


def total_loss(logits: list[np.ndarray], labels: np.ndarray, k: int, spec: GroupSpec,
               prior: TemporalPrior, cfg: TrainConfig,
               ) -> tuple[float, list[np.ndarray], dict[str, float]]:
    """Classification loss plus the weighted smoothing penalty.

    Smoothing is applied to each group's log-softmax independently and
    averaged over groups.
    """
    loss, grads = gtla_loss(logits, labels, k, spec, prior, cfg)
    parts = {"classification": loss, "smoothing": 0.0}
    if cfg.smooth_weight > 0.0:
        smooth_total = 0.0
        for i, s in enumerate(logits):
            log_p = log_softmax(s)
            sm, d_log_p = smoothing_loss(log_p, cfg.smooth_clip)
            smooth_total += sm
            scale = cfg.smooth_weight / spec.n
            p = np.exp(log_p)
            grads[i] += scale * (d_log_p - p * d_log_p.sum(axis=0, keepdims=True))
        parts["smoothing"] = smooth_total / spec.n
        loss += cfg.smooth_weight * parts["smoothing"]
    return float(loss), grads, parts
