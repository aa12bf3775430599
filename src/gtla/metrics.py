"""Global and balanced segmentation metrics plus the false-positive taxonomy.

Global metrics follow the usual segmentation protocol (frame accuracy,
normalized edit similarity over segment label lists, segment F1 at IoU
thresholds). Balanced metrics average per class and are reported for head
and tail classes separately together with their harmonic mean, so tail
behaviour is not drowned out by frequent classes. Unmatched predicted
segments are further split into activity-irrelevant (FP1), order-violating
(FP2) and remaining (FP3) false positives.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import Corpus, Segment, segments_from_frames
from .data.io import write_json
from .grouping import GroupSpec, relabel_for_group
from .inference import Prediction
from .priors import TemporalPrior, bounds_matrix

log = logging.getLogger(__name__)

IOU_THRESHOLDS = (0.10, 0.25, 0.50)
TAXONOMY_IOU = 0.25


def levenshtein(a: Sequence, b: Sequence) -> int:
    """Edit distance between two label lists (two-row DP)."""
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        current = [i] + [0] * len(b)
        for j, y in enumerate(b, 1):
            current[j] = min(previous[j] + 1, current[j - 1] + 1,
                             previous[j - 1] + (x != y))
        previous = current
    return previous[-1]


def edit_score(pred_segments: Sequence, gt_segments: Sequence) -> float:
    """Normalized edit similarity (percent) between two segment label lists."""
    pred = [s.label if isinstance(s, Segment) else s for s in pred_segments]
    gt = [s.label if isinstance(s, Segment) else s for s in gt_segments]
    longest = max(len(pred), len(gt))
    if longest == 0:
        return 100.0
    return 100.0 * (1.0 - levenshtein(pred, gt) / longest)


def segment_iou(a: Segment, b: Segment) -> float:
    inter = max(0, min(a.end, b.end) - max(a.start, b.start))
    union = (a.end - a.start) + (b.end - b.start) - inter
    return inter / union if union else 0.0


def match_segments(pred_segments: Sequence[Segment], gt_segments: Sequence[Segment],
                   threshold: float) -> list[int | None]:
    """Match predictions to same-class GT segments with IoU >= threshold.

    Returns the matched GT index per prediction (or None); each GT segment
    is consumed at most once. The assignment is a maximum matching, found
    by augmenting paths in prediction order with higher-IoU candidates
    tried first, so the TP count cannot depend on segment ordering and the
    result is deterministic.
    """
    return _max_matching(_candidates(pred_segments, gt_segments), threshold)


def _candidates(pred_segments: Sequence[Segment],
                gt_segments: Sequence[Segment]) -> list[list[tuple[float, int, int]]]:
    """Per prediction, ``(iou, -j, j)`` for every same-class GT segment j, in the order the
    matching tries them: highest IoU first, ties to the lower index. Any threshold's
    candidates are a prefix of this list, so one list serves every threshold."""
    same_class: dict[int, list[int]] = {}
    for j, gt in enumerate(gt_segments):
        same_class.setdefault(gt.label, []).append(j)
    return [sorted(((segment_iou(pred, gt_segments[j]), -j, j)
                    for j in same_class.get(pred.label, ())), reverse=True)
            for pred in pred_segments]


def _max_matching(candidates: list[list[tuple[float, int, int]]],
                  threshold: float) -> list[int | None]:
    """:func:`match_segments` over the :func:`_candidates` with IoU >= ``threshold``."""
    options = [[j for iou, _, j in row if iou >= threshold] for row in candidates]
    gt_owner: dict[int, int] = {}

    def assign(i: int, visited: set[int]) -> bool:
        for j in options[i]:
            if j in visited:
                continue
            visited.add(j)
            if j not in gt_owner or assign(gt_owner[j], visited):
                gt_owner[j] = i
                return True
        return False

    for i in range(len(options)):
        assign(i, set())
    matches: list[int | None] = [None] * len(options)
    for j, i in gt_owner.items():
        matches[i] = j
    return matches


def match_counts(pred_segments, gt_segments, threshold: float) -> tuple[int, int, int]:
    matches = match_segments(pred_segments, gt_segments, threshold)
    tp = sum(m is not None for m in matches)
    return tp, len(pred_segments) - tp, len(gt_segments) - tp


def f1_from_counts(tp: int, fp: int, fn: int) -> float:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def harmonic_mean(head: float, tail: float) -> float:
    if head + tail == 0.0:
        return 0.0
    return 2.0 * head * tail / (head + tail)


@dataclass(frozen=True)
class HeadTailSplit:
    head: frozenset[int]
    tail: frozenset[int]
    threshold: float
    imbalance_ratio: float


def head_tail_split(train: Corpus, threshold: float) -> HeadTailSplit:
    """Split classes by training frame count against the threshold."""
    if not 0 < threshold < np.inf:  # NaN fails too
        raise ValueError("threshold must be finite and > 0")
    counts = np.zeros(len(train.vocab), dtype=np.int64)
    for seq in train.sequences:
        counts += np.bincount(seq.labels, minlength=len(train.vocab))
    head = frozenset(int(c) for c in np.flatnonzero(counts >= threshold))
    tail = frozenset(int(c) for c in np.flatnonzero(counts < threshold))
    positive = counts[counts > 0]
    if positive.size < len(counts):
        log.warning("classes with zero training frames ignored in the imbalance ratio")
    ratio = float(positive.max() / positive.min()) if positive.size else 0.0
    if not tail:
        log.warning("no tail classes below threshold %s; harmonic means degenerate",
                    threshold)
    return HeadTailSplit(head, tail, float(threshold), ratio)


def _split_average(values: dict[int, float], split: HeadTailSplit,
                   ) -> tuple[float, float, float]:
    head_vals = [v for c, v in values.items() if c in split.head]
    tail_vals = [v for c, v in values.items() if c in split.tail]
    head = float(np.mean(head_vals)) if head_vals else 0.0
    tail = float(np.mean(tail_vals)) if tail_vals else 0.0
    if not tail_vals:
        # Degenerate split: report the head value rather than a 0-collapsed mean.
        return head, tail, head
    if not head_vals:
        return head, tail, tail
    return head, tail, harmonic_mean(head, tail)


def balanced_f1(pred_segments_per_seq: Sequence[Sequence[Segment]],
                gt_segments_per_seq: Sequence[Sequence[Segment]],
                matches_per_seq: Sequence[Sequence[int | None]], split: HeadTailSplit,
                ) -> tuple[float, float, float, dict[int, float]]:
    """Per-class segment F1 averaged within the head and tail sets.

    Class c's counts use only segments of class c, pooled over the corpus;
    classes with neither GT nor predicted segments are excluded. The counts
    come from each sequence's :func:`match_segments` result, which pairs only
    same-class segments and so is a maximum matching within each class.
    """
    tp, num_pred, num_gt = Counter(), Counter(), Counter()
    for preds, gts, matches in zip(pred_segments_per_seq, gt_segments_per_seq,
                                   matches_per_seq, strict=True):
        num_pred.update(s.label for s in preds)
        num_gt.update(s.label for s in gts)
        tp.update(s.label for s, m in zip(preds, matches, strict=True) if m is not None)
    per_class = {c: f1_from_counts(tp[c], num_pred[c] - tp[c], num_gt[c] - tp[c]) * 100.0
                 for c in sorted(num_pred.keys() | num_gt.keys())}
    head, tail, hmean = _split_average(per_class, split)
    return head, tail, hmean, per_class


def fp_taxonomy(pred_segments: Sequence[Segment], matches: Sequence[int | None], gt_seq,
                spec: GroupSpec, prior: TemporalPrior, group: int) -> dict[str, int]:
    """Classify predicted segments as TP or FP1/FP2/FP3.

    ``matches`` is :func:`match_segments` of the predictions against the
    sequence's GT segments at ``TAXONOMY_IOU``. Unmatched predictions whose
    class does not occur in ``group`` are FP1; ones whose class is in the
    group but whose midpoint falls outside the class's ground-truth-derived
    temporal bounds are FP2; the rest are FP3.
    """
    classes = spec.classes_of_group[group]
    lo, hi = bounds_matrix(relabel_for_group(gt_seq, spec, group), prior.groups[group])
    counts = {"tp": 0, "fp1": 0, "fp2": 0, "fp3": 0}
    for seg, match in zip(pred_segments, matches, strict=True):
        if match is not None:
            counts["tp"] += 1
        elif seg.label not in classes:
            counts["fp1"] += 1
        else:
            c = classes.index(seg.label)
            midpoint = (seg.start + seg.end) // 2
            counts["fp2" if not lo[c] <= midpoint <= hi[c] else "fp3"] += 1
    return counts


def group_id_accuracy(pred_groups: Sequence[int], gt_groups: Sequence[int]) -> float:
    pred_groups = list(pred_groups)
    gt_groups = list(gt_groups)
    if len(pred_groups) != len(gt_groups):
        raise ValueError("prediction/ground-truth length mismatch")
    hits = sum(p == g for p, g in zip(pred_groups, gt_groups))
    return 100.0 * hits / len(gt_groups)


@dataclass
class MetricsReport:
    global_metrics: dict[str, float]
    balanced: dict[str, dict[str, float]]
    fp_counts: dict[str, int]
    group_id_accuracy: float
    head_classes: list[str]
    tail_classes: list[str]
    imbalance_ratio: float
    split_threshold: float
    per_class: dict[str, dict[str, float]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "global": self.global_metrics,
            "balanced": self.balanced,
            "fp_taxonomy": self.fp_counts,
            "group_id_accuracy": self.group_id_accuracy,
            "head_tail": {
                "head": self.head_classes,
                "tail": self.tail_classes,
                "imbalance_ratio": self.imbalance_ratio,
                "threshold": self.split_threshold,
            },
            "per_class": self.per_class,
        }

    def save(self, path: str | Path) -> None:
        write_json(path, self.to_dict())


def compute_report(predictions: Sequence[Prediction], dataset: Corpus,
                   spec: GroupSpec, prior: TemporalPrior, split: HeadTailSplit,
                   gt_groups: Sequence[int],
                   exclude_classes: Sequence[int] = ()) -> MetricsReport:
    """Assemble the full metric suite for one evaluated corpus.

    ``exclude_classes`` drops classes (e.g. background) from the per-class
    averages and head/tail sets; global metrics always use every frame.
    Global F1, balanced F1 and the FP taxonomy read one matching per
    sequence and IoU threshold.
    """
    vocab = dataset.vocab
    excluded = set(exclude_classes)
    pred_labels = [p.labels for p in predictions]
    gt_labels = [s.labels for s in dataset.sequences]
    pred_segs = [segments_from_frames(p) for p in pred_labels]
    gt_segs = [segments_from_frames(g) for g in gt_labels]

    if excluded:
        split = HeadTailSplit(frozenset(split.head - excluded),
                              frozenset(split.tail - excluded),
                              split.threshold, split.imbalance_ratio)

    # GT frames and correctly labelled frames per class: MoF pools them,
    # per-class recall divides them class by class.
    frames = np.zeros(len(vocab), dtype=np.int64)
    hits = np.zeros(len(vocab), dtype=np.int64)
    for p, g in zip(pred_labels, gt_labels, strict=True):
        if p.size != g.size:
            raise ValueError(f"length mismatch: {p.size} vs {g.size}")
        frames += np.bincount(g, minlength=len(vocab))
        hits += np.bincount(g[p == g], minlength=len(vocab))

    global_metrics: dict[str, float] = {
        "mof": 100.0 * int(hits.sum()) / int(frames.sum()),
        "edit": float(np.mean([edit_score(p, g) for p, g in zip(pred_segs, gt_segs)])),
    }
    candidates = [_candidates(p, g) for p, g in zip(pred_segs, gt_segs)]
    matches = {t: [_max_matching(c, t) for c in candidates] for t in IOU_THRESHOLDS}
    num_pred = sum(map(len, pred_segs))
    num_gt = sum(map(len, gt_segs))
    for t in IOU_THRESHOLDS:
        tp = sum(m is not None for seq_matches in matches[t] for m in seq_matches)
        global_metrics[f"f1@{t:.2f}"] = f1_from_counts(tp, num_pred - tp, num_gt - tp) * 100.0

    recalls = {c: (100.0 * hits[c]) / frames[c]
               for c in range(len(vocab)) if frames[c] > 0 and c not in excluded}
    head_r, tail_r, hmean_r = _split_average(recalls, split)
    balanced: dict[str, dict[str, float]] = {
        "recall": {"head": head_r, "tail": tail_r, "hmean": hmean_r},
    }
    per_class: dict[str, dict[str, float]] = {
        "recall": {vocab.name_of(c): v for c, v in sorted(recalls.items())},
    }
    for t in IOU_THRESHOLDS:
        # excluded classes are in neither split set, so they never enter
        # the head/tail averages; drop them from the per-class detail only
        head_f, tail_f, hmean_f, per_c = balanced_f1(pred_segs, gt_segs, matches[t], split)
        balanced[f"f1@{t:.2f}"] = {"head": head_f, "tail": tail_f, "hmean": hmean_f}
        per_class[f"f1@{t:.2f}"] = {vocab.name_of(c): v
                                    for c, v in sorted(per_c.items())
                                    if c not in excluded}

    fp_counts = {"tp": 0, "fp1": 0, "fp2": 0, "fp3": 0}
    for segs, seq_matches, seq, k in zip(pred_segs, matches[TAXONOMY_IOU],
                                         dataset.sequences, gt_groups):
        counts = fp_taxonomy(segs, seq_matches, seq, spec, prior, int(k))
        for key in fp_counts:
            fp_counts[key] += counts[key]

    gid = group_id_accuracy([p.group for p in predictions], list(gt_groups))
    return MetricsReport(
        global_metrics=global_metrics,
        balanced=balanced,
        fp_counts=fp_counts,
        group_id_accuracy=gid,
        head_classes=sorted(vocab.name_of(c) for c in split.head),
        tail_classes=sorted(vocab.name_of(c) for c in split.tail),
        imbalance_ratio=split.imbalance_ratio,
        split_threshold=split.threshold,
        per_class=per_class,
    )
