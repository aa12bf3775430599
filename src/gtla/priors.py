"""Per-group class priors and action-ordering priors.

For every group the training data yields a frame-frequency prior over the
group's real classes and, per class, the sets of classes that must precede
or must follow it. Those sets turn into per-sequence temporal bounds that
gate the logit adjustment during training.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .data import ClassVocab, Corpus, FrameSeq, segment_labels
from .data.io import read_json, write_json
from .errors import ConfigError, FormatError
from .grouping import GroupSpec, relabel_for_group

log = logging.getLogger(__name__)

PRIOR_CLAMP = 1e-6


def clamped_log(prior) -> np.ndarray:
    """Log of a prior clamped into [PRIOR_CLAMP, 1 - PRIOR_CLAMP]; every logit
    offset is built from it."""
    return np.log(np.clip(np.asarray(prior, dtype=np.float64), PRIOR_CLAMP, 1.0 - PRIOR_CLAMP))


@dataclass(frozen=True)
class GroupPrior:
    """Prior and ordering sets for one group, over its real local classes."""

    prior: np.ndarray  # length = number of real classes, sums to 1
    must_precede: tuple[frozenset[int], ...]
    must_follow: tuple[frozenset[int], ...]
    # [0, c, x]: x must precede c; [1, c, x]: x must follow c; x = others: never
    order_tables: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        tables = np.zeros((2, self.num_classes, self.num_classes + 1), dtype=bool)
        for c, (bf, af) in enumerate(zip(self.must_precede, self.must_follow)):
            if bf & af:
                raise ValueError(f"class {c}: precede/follow sets overlap")
            if c in bf or c in af:
                raise ValueError(f"class {c}: ordering set contains the class itself")
            tables[0, c, list(bf)] = tables[1, c, list(af)] = True
        object.__setattr__(self, "order_tables", tables)

    @property
    def num_classes(self) -> int:
        return int(self.prior.size)

    def clamped_log_prior(self) -> np.ndarray:
        return clamped_log(self.prior)


@dataclass(frozen=True)
class TemporalPrior:
    groups: tuple[GroupPrior, ...]


def class_prior(group_train: Sequence[FrameSeq], spec: GroupSpec, k: int) -> np.ndarray:
    """Frame-frequency prior over group k's real classes.

    The ``others`` class gets no prior; it is excluded from adjustment.
    """
    if not group_train:
        raise ConfigError(f"group {k} has no training sequences")
    num_real = spec.num_real_classes(k)
    counts = np.zeros(num_real, dtype=np.float64)
    total = 0
    for seq in group_train:
        local = relabel_for_group(seq, spec, k)
        counts += np.bincount(local, minlength=num_real + 1)[:num_real]
        total += local.size
    return counts / total


def extract_temporal_sets(segment_label_seqs: Iterable[Sequence[int]],
                          c: int) -> tuple[frozenset[int], frozenset[int]]:
    """Mine the must-precede / must-follow sets of class ``c``.

    Works on segment-level label lists: ``after`` collects every label seen
    strictly after an occurrence of ``c`` in any sequence, ``before`` the
    ones seen strictly before; the set differences keep only classes whose
    position relative to ``c`` never varies.
    """
    after: set[int] = set()
    before: set[int] = set()
    found = False
    for labels in segment_label_seqs:
        positions = [i for i, lab in enumerate(labels) if lab == c]
        if not positions:
            continue
        found = True
        for i in positions:
            after.update(labels[i + 1:])
            before.update(labels[:i])
    if not found:
        log.warning("class %d never occurs; ordering sets are empty", c)
    return frozenset(before - after), frozenset(after - before)


def extract_priors(train: Corpus, spec: GroupSpec) -> TemporalPrior:
    """Build priors and ordering sets for every group of the spec."""
    groups = []
    for k in range(spec.n):
        seqs = [s for s in train.sequences if spec.group_of(s) == k]
        prior = class_prior(seqs, spec, k)
        seg_seqs = [segment_labels(relabel_for_group(s, spec, k)) for s in seqs]
        num_real = spec.num_real_classes(k)
        precede, follow = [], []
        for c in range(num_real):
            bf, af = extract_temporal_sets(seg_seqs, c)
            precede.append(bf)
            follow.append(af)
        groups.append(GroupPrior(prior, tuple(precede), tuple(follow)))
    return TemporalPrior(tuple(groups))


def bounds_matrix(labels: np.ndarray, prior: GroupPrior) -> tuple[np.ndarray, np.ndarray]:
    """Per-class frame windows [lo[c], hi[c]] (inclusive) where c may be adjusted.

    lo is the last frame whose label must precede c, hi the first frame
    whose label must follow c. An empty ordering set, or one whose classes
    do not occur in this sequence, opens the corresponding side fully.
    ``others`` frames never bound a window.
    """
    t = np.arange(len(labels))
    lo = np.where(prior.order_tables[0][:, labels], t, 0).max(axis=1, initial=0)
    hi = np.where(prior.order_tables[1][:, labels], t, t.size).min(axis=1, initial=t.size)
    return lo, hi


def temporal_factor_matrix(labels: np.ndarray, prior: GroupPrior) -> np.ndarray:
    """Factor matrix F (classes x frames) for a whole relabeled sequence.

    F is 1 inside a class's bounds; outside, it rescales the class's
    adjustment to the true label's own, leaving their margin untouched.
    """
    labels = np.asarray(labels)
    num = prior.num_classes
    if np.any(labels >= num):
        raise ValueError("sequence contains `others` frames; temporal factors "
                         "are defined for the target group only")
    lo, hi = bounds_matrix(labels, prior)
    t = np.arange(labels.size)
    inside = (t[None, :] >= lo[:, None]) & (t[None, :] <= hi[:, None])
    log_p = prior.clamped_log_prior()
    ratio = log_p[labels][None, :] / log_p[:, None]
    return np.where(inside, 1.0, ratio)


def temporal_prior_to_dict(prior: TemporalPrior, spec: GroupSpec,
                           vocab: ClassVocab) -> dict:
    groups = []
    for k, gp in enumerate(prior.groups):
        names = [vocab.name_of(g) for g in spec.classes_of_group[k]]
        groups.append({
            "prior": {names[c]: float(p) for c, p in enumerate(gp.prior)},
            "must_precede": {names[c]: sorted(names[x] for x in gp.must_precede[c])
                             for c in range(gp.num_classes)},
            "must_follow": {names[c]: sorted(names[x] for x in gp.must_follow[c])
                            for c in range(gp.num_classes)},
        })
    return {"version": 1, "groups": groups}


def temporal_prior_from_dict(payload: dict, spec: GroupSpec,
                             vocab: ClassVocab) -> TemporalPrior:
    try:
        groups = []
        for entry, classes in zip(payload["groups"], spec.classes_of_group, strict=True):
            names = [vocab.name_of(g) for g in classes]
            local = {name: c for c, name in enumerate(names)}
            prior = np.array([entry["prior"][name] for name in names], dtype=np.float64)
            precede = tuple(frozenset(local[x] for x in entry["must_precede"][name])
                            for name in names)
            follow = tuple(frozenset(local[x] for x in entry["must_follow"][name])
                           for name in names)
            groups.append(GroupPrior(prior, precede, follow))
        return TemporalPrior(tuple(groups))
    except (AttributeError, LookupError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed temporal prior: {type(exc).__name__} {exc}") from exc


def save_temporal_prior(path: str | Path, prior: TemporalPrior, spec: GroupSpec,
                        vocab: ClassVocab) -> None:
    write_json(path, temporal_prior_to_dict(prior, spec, vocab))


def load_temporal_prior(path: str | Path, spec: GroupSpec,
                        vocab: ClassVocab) -> TemporalPrior:
    payload = read_json(path)
    try:
        return temporal_prior_from_dict(payload, spec, vocab)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc
