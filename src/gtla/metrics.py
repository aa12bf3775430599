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
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import Corpus, FrameSeq, Segment
from .data.io import SegmentTable, segment_table, to_json, write_json
from .grouping import GroupSpec, relabel_for_group
from .inference import Prediction
from .priors import TemporalPrior, bounds_matrix

log = logging.getLogger(__name__)

IOU_THRESHOLDS = (0.10, 0.25, 0.50)
TAXONOMY_IOU = 0.25


def levenshtein(a: Sequence, b: Sequence) -> int:
    """Edit distance between two label lists (two-row DP)."""
    while len(a) and len(b) and a[0] == b[0]:  # a common prefix or suffix costs nothing
        a, b = a[1:], b[1:]
    while len(a) and len(b) and a[-1] == b[-1]:
        a, b = a[:-1], b[:-1]
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


def edit_score(pred_labels: Sequence[int], gt_labels: Sequence[int]) -> float:
    """Normalized edit similarity (percent) between two segment label lists."""
    longest = max(len(pred_labels), len(gt_labels))
    if longest == 0:
        return 100.0
    return 100.0 * (1.0 - levenshtein(pred_labels, gt_labels) / longest)


def match_segments(pred_segments: Sequence[Segment], gt_segments: Sequence[Segment],
                   threshold: float) -> list[int | None]:
    """Match predictions to same-class GT segments with IoU >= threshold.

    Returns the matched GT index per prediction (or None); each GT segment
    is consumed at most once. The assignment is a maximum matching, found
    by augmenting paths in prediction order with higher-IoU candidates
    tried first, so the TP count cannot depend on segment ordering and the
    result is deterministic.
    """
    pred, gt = (SegmentTable(np.zeros(len(s), dtype=np.int64),
                             *np.array(s, dtype=np.int64).reshape(-1, 3).T)
                for s in (pred_segments, gt_segments))
    [matches] = _match(pred, gt, (threshold,))
    return [j if j >= 0 else None for j in matches.tolist()]


def _match(pred: SegmentTable, gt: SegmentTable,
           thresholds: Sequence[float]) -> list[np.ndarray]:
    """:func:`match_segments` of every sequence of two tables at once: per threshold, each
    ``pred`` row's matched ``gt`` row, or -1. Each (prediction, same-class GT segment of its
    sequence) pair is ranked once: by prediction, highest IoU first, ties to the lower GT row,
    so any threshold's options are a prefix. A pair that is the only candidate of both its
    segments is matched directly; components of the IoU >= t graph do not interact, so any
    other sequence's matching is its own :func:`_max_matching` over its ranked options."""
    # GT rows sorted by (sequence, label), found by binary search. Integer operands
    # below 2**53, so the float64 IoU equals the exact quotient correctly rounded.
    width = 1 + int(max(pred.label.max(initial=-1), gt.label.max(initial=-1)))
    gt_keys = gt.seq * width + gt.label
    order = np.argsort(gt_keys, kind="stable")
    lo, hi = (np.searchsorted(gt_keys[order], pred.seq * width + pred.label, side)
              for side in ("left", "right"))
    pi = np.repeat(np.arange(pred.seq.size), hi - lo)
    gj = order[np.arange(pi.size) + np.repeat(hi - np.cumsum(hi - lo), hi - lo)]
    inter = np.maximum(0, np.minimum(pred.end[pi], gt.end[gj])
                       - np.maximum(pred.start[pi], gt.start[gj]))
    iou = inter / ((pred.end - pred.start)[pi] + (gt.end - gt.start)[gj] - inter)
    rank = np.lexsort((gj, -iou, pi))
    pi, gj, iou = pi[rank], gj[rank], iou[rank]

    result = []
    for t in thresholds:
        ok = iou >= t
        p, g = pi[ok], gj[ok]  # still ranked
        simple = (np.bincount(p, minlength=pred.seq.size)[p] == 1) \
            & (np.bincount(g, minlength=gt.seq.size)[g] == 1)
        matches = np.full(pred.seq.size, -1, dtype=np.int64)
        matches[p[simple]] = g[simple]
        for s in np.flatnonzero(np.bincount(pred.seq[p[~simple]])).tolist():
            a, b = np.searchsorted(pred.seq, (s, s + 1))
            rows = slice(*np.searchsorted(p, (a, b)))
            options = np.split(g[rows], np.searchsorted(p[rows], np.arange(a + 1, b)))
            matches[a:b] = _max_matching([o.tolist() for o in options])
        result.append(matches)
    return result


def _max_matching(options: list[list[int]]) -> list[int]:
    """Augmenting-path maximum matching in prediction order: prediction i may take the GT
    rows ``options[i]``, tried in that order. Returns each prediction's GT row, or -1."""
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
    matches = [-1] * len(options)
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
class HeadTailSplit:  # head and tail class names, each sorted, and the split behind them
    head: tuple[str, ...]
    tail: tuple[str, ...]
    threshold: float
    imbalance_ratio: float


def head_tail_split(train: Corpus, threshold: float) -> HeadTailSplit:
    """Split classes by training frame count against the threshold."""
    if not 0 < threshold < np.inf:  # NaN fails too
        raise ValueError("threshold must be finite and > 0")
    counts = np.zeros(len(train.vocab), dtype=np.int64)
    for seq in train.sequences:
        counts += np.bincount(seq.labels, minlength=len(train.vocab))
    names = np.array(train.vocab.names, dtype=object)
    head = tuple(sorted(names[counts >= threshold]))
    tail = tuple(sorted(names[counts < threshold]))
    positive = counts[counts > 0]
    if positive.size < len(counts):
        log.warning("classes with zero training frames ignored in the imbalance ratio")
    ratio = float(positive.max() / positive.min()) if positive.size else 0.0
    if not tail:
        log.warning("no tail classes below threshold %s; harmonic means degenerate",
                    threshold)
    return HeadTailSplit(head, tail, float(threshold), ratio)


def _split_average(values: dict[str, float], split: HeadTailSplit,
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


def balanced_f1(pred_labels: np.ndarray, gt_labels: np.ndarray, matched: np.ndarray,
                split: HeadTailSplit, names: Sequence[str],
                ) -> tuple[float, float, float, dict[str, float]]:
    """Per-class segment F1, keyed by class name, averaged within the head and tail sets.

    The labels are those of every predicted and GT segment of the corpus, label c naming
    class ``names[c]``, and ``matched`` flags the predictions that :func:`match_segments`
    paired, a maximum matching within each class. Classes with no GT or predicted segment
    are excluded.
    """
    width = 1 + int(max(pred_labels.max(initial=-1), gt_labels.max(initial=-1)))
    num_pred, num_gt, tp = (np.bincount(x, minlength=width).tolist()
                            for x in (pred_labels, gt_labels, pred_labels[matched]))
    per_class = {names[c]: f1_from_counts(tp[c], num_pred[c] - tp[c], num_gt[c] - tp[c]) * 100.0
                 for c in range(width) if num_pred[c] or num_gt[c]}
    head, tail, hmean = _split_average(per_class, split)
    return head, tail, hmean, per_class


def fp_taxonomy(pred: SegmentTable, matched: np.ndarray, sequences: Sequence[FrameSeq],
                spec: GroupSpec, prior: TemporalPrior, groups: Sequence[int]) -> dict[str, int]:
    """Classify predicted segments as TP or FP1/FP2/FP3.

    ``matched`` flags the rows of ``pred`` paired at ``TAXONOMY_IOU``; sequence s is
    scored in group ``groups[s]``. Unmatched predictions whose class is not in that
    group are FP1; ones whose midpoint falls outside their class's ground-truth-derived
    temporal bounds are FP2; the rest are FP3.
    """
    group = np.asarray(groups, dtype=np.int64)[pred.seq]
    local = np.stack([relabel_for_group(pred.label, spec, k) for k in range(spec.n)])
    c = local[group, np.arange(group.size)]  # each prediction's class id in its group
    member = c < np.array([spec.others_id(k) for k in range(spec.n)])[group]
    rows = np.flatnonzero(~matched & member)
    fp2 = 0
    for s in np.flatnonzero(np.bincount(pred.seq[rows])).tolist():
        part = rows[pred.seq[rows] == s]
        k = int(groups[s])
        lo, hi = bounds_matrix(relabel_for_group(sequences[s], spec, k), prior.groups[k], c[part])
        midpoint = (pred.start[part] + pred.end[part]) // 2
        fp2 += int(np.count_nonzero((midpoint < lo) | (midpoint > hi)))
    return {"tp": int(matched.sum()), "fp1": int(np.count_nonzero(~matched & ~member)),
            "fp2": fp2, "fp3": rows.size - fp2}


def group_id_accuracy(pred_groups: Sequence[int], gt_groups: Sequence[int]) -> float:
    pred_groups = list(pred_groups)
    gt_groups = list(gt_groups)
    if len(pred_groups) != len(gt_groups):
        raise ValueError("prediction/ground-truth length mismatch")
    hits = sum(p == g for p, g in zip(pred_groups, gt_groups))
    return 100.0 * hits / len(gt_groups)


@dataclass
class MetricsReport:
    """The metrics of one evaluation, laid out as ``report.json`` holds them."""

    global_metrics: dict[str, float]
    balanced: dict[str, dict[str, float]]
    fp_counts: dict[str, int]
    group_id_accuracy: float
    head_tail: HeadTailSplit
    per_class: dict[str, dict[str, float]]

    def to_dict(self) -> dict:
        return to_json(self)

    def save(self, path: str | Path) -> None:
        write_json(path, self.to_dict())


def compute_report(predictions: Sequence[Prediction], dataset: Corpus,
                   spec: GroupSpec, prior: TemporalPrior, split: HeadTailSplit,
                   gt_groups: Sequence[int],
                   exclude_classes: Sequence[str] = ()) -> MetricsReport:
    """Assemble the full metric suite for one evaluated corpus.

    ``exclude_classes`` names classes (e.g. background) to drop from the
    per-class results and head/tail sets; global metrics always use every frame.
    Global F1, balanced F1 and the FP taxonomy read one matching per IoU
    threshold, computed on one segment table per side.
    """
    names = dataset.vocab.names
    excluded = set(exclude_classes)
    pred_labels = [p.labels for p in predictions]
    gt_labels = [s.labels for s in dataset.sequences]
    for p, g in zip(pred_labels, gt_labels, strict=True):
        if p.size != g.size:
            raise ValueError(f"length mismatch: {p.size} vs {g.size}")
    pred, gt = segment_table(pred_labels), segment_table(gt_labels)
    # excluded classes are in neither split set, so they never enter the head/tail
    # averages; the per-class results drop them at the end
    split = replace(split, head=tuple(c for c in split.head if c not in excluded),
                    tail=tuple(c for c in split.tail if c not in excluded))

    # GT frames and correctly labelled frames per class: MoF pools them,
    # per-class recall divides them class by class.
    g_all, p_all = np.concatenate(gt_labels), np.concatenate(pred_labels)
    frames = np.bincount(g_all, minlength=len(names))
    hits = np.bincount(g_all[p_all == g_all], minlength=len(names))

    cuts = [np.searchsorted(t.seq, np.arange(1, len(gt_labels))) for t in (pred, gt)]
    label_lists = [[a.tolist() for a in np.split(t.label, cut)] for t, cut in zip((pred, gt), cuts)]
    global_metrics: dict[str, float] = {
        "mof": 100.0 * int(hits.sum()) / int(frames.sum()),
        "edit": float(np.mean([edit_score(p, g) for p, g in zip(*label_lists)])),
    }

    per_class: dict[str, dict[str, float]] = {
        "recall": {name: (100.0 * hits[c]) / frames[c]
                   for c, name in enumerate(names) if frames[c] > 0},
    }
    head_r, tail_r, hmean_r = _split_average(per_class["recall"], split)
    balanced = {"recall": {"head": head_r, "tail": tail_r, "hmean": hmean_r}}
    matched = {t: m >= 0 for t, m in zip(IOU_THRESHOLDS, _match(pred, gt, IOU_THRESHOLDS))}
    for t in IOU_THRESHOLDS:
        tp = int(matched[t].sum())
        global_metrics[f"f1@{t:.2f}"] = f1_from_counts(
            tp, pred.seq.size - tp, gt.seq.size - tp) * 100.0
        head_f, tail_f, hmean_f, per_class[f"f1@{t:.2f}"] = balanced_f1(
            pred.label, gt.label, matched[t], split, names)
        balanced[f"f1@{t:.2f}"] = {"head": head_f, "tail": tail_f, "hmean": hmean_f}

    gid = group_id_accuracy([p.group for p in predictions], list(gt_groups))
    fp_counts = fp_taxonomy(pred, matched[TAXONOMY_IOU], dataset.sequences, spec, prior,
                            gt_groups)
    return MetricsReport(
        global_metrics=global_metrics,
        balanced=balanced,
        fp_counts=fp_counts,
        group_id_accuracy=gid,
        head_tail=split,
        per_class={metric: {c: v for c, v in values.items() if c not in excluded}
                   for metric, values in per_class.items()},
    )
