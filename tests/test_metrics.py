import json
import os
import subprocess
import sys
from collections import Counter
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import gtla
from gtla import metrics, priors
from gtla.data import Segment, segments_from_frames
from gtla.data.io import SegmentTable


def oracle_levenshtein(a, b):
    """Full-matrix DP reference, independent of the two-row implementation."""
    rows, cols = len(a) + 1, len(b) + 1
    table = np.zeros((rows, cols), dtype=int)
    table[:, 0] = np.arange(rows)
    table[0, :] = np.arange(cols)
    for i in range(1, rows):
        for j in range(1, cols):
            table[i, j] = min(table[i - 1, j] + 1,
                              table[i, j - 1] + 1,
                              table[i - 1, j - 1] + (a[i - 1] != b[j - 1]))
    return int(table[-1, -1])


def oracle_max_matching(pred_segs, gt_segs, threshold):
    """Exhaustive maximum bipartite matching on the IoU >= threshold graph."""
    edges = [[j for j, gt in enumerate(gt_segs)
              if gt.label == p.label and oracle_segment_iou(p, gt) >= threshold]
             for p in pred_segs]

    def best(i, used):
        if i == len(edges):
            return 0
        top = best(i + 1, used)
        for j in edges[i]:
            if j not in used:
                top = max(top, 1 + best(i + 1, used | {j}))
        return top

    return best(0, frozenset())


def oracle_balanced_f1(pred_segments_per_seq, gt_segments_per_seq, threshold, split):
    """Per-class re-matching reference: each class's segments are matched on their own."""
    tp, fp, fn = {}, {}, {}
    for preds, gts in zip(pred_segments_per_seq, gt_segments_per_seq, strict=True):
        classes = {s.label for s in preds} | {s.label for s in gts}
        for c in classes:
            p_c = [s for s in preds if s.label == c]
            g_c = [s for s in gts if s.label == c]
            t, f, n = metrics.match_counts(p_c, g_c, threshold)
            tp[c] = tp.get(c, 0) + t
            fp[c] = fp.get(c, 0) + f
            fn[c] = fn.get(c, 0) + n
    per_class = {str(c): metrics.f1_from_counts(tp[c], fp[c], fn[c]) * 100.0 for c in tp}
    head, tail, hmean = metrics._split_average(per_class, split)
    return head, tail, hmean, per_class


def balanced_f1_at(pred, gt, threshold, split):
    """balanced_f1 on freshly matched segments at one threshold, class c named str(c)."""
    matched = [m is not None for p, g in zip(pred, gt)
               for m in metrics.match_segments(p, g, threshold)]
    labels = [np.array([s.label for segs in side for s in segs], dtype=np.int64)
              for side in (pred, gt)]
    names = [str(c) for c in range(1 + max(np.max(x, initial=-1) for x in labels))]
    return metrics.balanced_f1(*labels, np.array(matched, dtype=bool), split, names)


def f1_at(pred_segments, gt_segments, threshold):
    """Segment F1 at one IoU threshold, counted as ``compute_report`` counts it."""
    return metrics.f1_from_counts(*metrics.match_counts(pred_segments, gt_segments, threshold))


def table_of(segments):
    """A one-sequence SegmentTable holding ``segments``."""
    columns = np.array(segments, dtype=np.int64).reshape(-1, 3).T
    return SegmentTable(np.zeros(len(segments), dtype=np.int64), *columns)


def taxonomy(pred, seq, spec, prior, group=None):
    """fp_taxonomy of one sequence, matched at TAXONOMY_IOU and scored in ``group``
    (default: its own)."""
    matches = metrics.match_segments(pred, segments_from_frames(seq), metrics.TAXONOMY_IOU)
    group = spec.group_of(seq) if group is None else group
    return gtla.fp_taxonomy(table_of(pred), np.array([m is not None for m in matches], dtype=bool),
                            [seq], spec, prior, [group])


# The per-sequence compute_report that the segment table replaced, kept verbatim as the
# oracle of TestComputeReport.test_matches_per_sequence_oracle. Its helpers carry the
# oracle_ prefix, and the edit distance is the full-matrix oracle_levenshtein.

def oracle_segments_from_frames(labels):
    labels = np.asarray(labels)
    boundaries = np.flatnonzero(labels[1:] != labels[:-1]) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [labels.size]))
    return [Segment(int(labels[s]), int(s), int(e)) for s, e in zip(starts, ends)]


def oracle_edit_score(pred_segments, gt_segments):
    pred = [s.label for s in pred_segments]
    gt = [s.label for s in gt_segments]
    longest = max(len(pred), len(gt))
    if longest == 0:
        return 100.0
    return 100.0 * (1.0 - oracle_levenshtein(pred, gt) / longest)


def oracle_segment_iou(a, b):
    inter = max(0, min(a.end, b.end) - max(a.start, b.start))
    union = (a.end - a.start) + (b.end - b.start) - inter
    return inter / union if union else 0.0


def oracle_candidates(pred_segments, gt_segments):
    same_class = {}
    for j, gt in enumerate(gt_segments):
        same_class.setdefault(gt.label, []).append(j)
    return [sorted(((oracle_segment_iou(pred, gt_segments[j]), -j, j)
                    for j in same_class.get(pred.label, ())), reverse=True)
            for pred in pred_segments]


def oracle_matching(candidates, threshold):
    options = [[j for iou, _, j in row if iou >= threshold] for row in candidates]
    gt_owner = {}

    def assign(i, visited):
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
    matches = [None] * len(options)
    for j, i in gt_owner.items():
        matches[i] = j
    return matches


def oracle_report_balanced_f1(pred_segments_per_seq, gt_segments_per_seq, matches_per_seq, split,
                              vocab):
    tp, num_pred, num_gt = Counter(), Counter(), Counter()
    for preds, gts, matches in zip(pred_segments_per_seq, gt_segments_per_seq,
                                   matches_per_seq, strict=True):
        num_pred.update(s.label for s in preds)
        num_gt.update(s.label for s in gts)
        tp.update(s.label for s, m in zip(preds, matches, strict=True) if m is not None)
    per_class = {vocab.name_of(c): metrics.f1_from_counts(tp[c], num_pred[c] - tp[c],
                                                          num_gt[c] - tp[c]) * 100.0
                 for c in sorted(num_pred.keys() | num_gt.keys())}
    head, tail, hmean = metrics._split_average(per_class, split)
    return head, tail, hmean, per_class


def oracle_fp_taxonomy(pred_segments, matches, gt_seq, spec, prior, group):
    classes = spec.classes_of_group[group]
    lo, hi = priors.bounds_matrix(gtla.relabel_for_group(gt_seq, spec, group), prior.groups[group])
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


def oracle_compute_report(predictions, dataset, spec, prior, split, gt_groups,
                          exclude_classes=()):
    vocab = dataset.vocab
    excluded = set(exclude_classes)
    pred_labels = [p.labels for p in predictions]
    gt_labels = [s.labels for s in dataset.sequences]
    pred_segs = [oracle_segments_from_frames(p) for p in pred_labels]
    gt_segs = [oracle_segments_from_frames(g) for g in gt_labels]

    if excluded:
        split = metrics.HeadTailSplit(tuple(c for c in split.head if c not in excluded),
                                      tuple(c for c in split.tail if c not in excluded),
                                      split.threshold, split.imbalance_ratio)

    frames = np.zeros(len(vocab), dtype=np.int64)
    hits = np.zeros(len(vocab), dtype=np.int64)
    for p, g in zip(pred_labels, gt_labels, strict=True):
        if p.size != g.size:
            raise ValueError(f"length mismatch: {p.size} vs {g.size}")
        frames += np.bincount(g, minlength=len(vocab))
        hits += np.bincount(g[p == g], minlength=len(vocab))

    global_metrics = {
        "mof": 100.0 * int(hits.sum()) / int(frames.sum()),
        "edit": float(np.mean([oracle_edit_score(p, g) for p, g in zip(pred_segs, gt_segs)])),
    }
    candidates = [oracle_candidates(p, g) for p, g in zip(pred_segs, gt_segs)]
    matches = {t: [oracle_matching(c, t) for c in candidates] for t in metrics.IOU_THRESHOLDS}
    num_pred = sum(map(len, pred_segs))
    num_gt = sum(map(len, gt_segs))
    for t in metrics.IOU_THRESHOLDS:
        tp = sum(m is not None for seq_matches in matches[t] for m in seq_matches)
        global_metrics[f"f1@{t:.2f}"] = metrics.f1_from_counts(tp, num_pred - tp,
                                                               num_gt - tp) * 100.0

    recalls = {vocab.name_of(c): (100.0 * hits[c]) / frames[c]
               for c in range(len(vocab)) if frames[c] > 0 and vocab.name_of(c) not in excluded}
    head_r, tail_r, hmean_r = metrics._split_average(recalls, split)
    balanced = {"recall": {"head": head_r, "tail": tail_r, "hmean": hmean_r}}
    per_class = {"recall": recalls}
    for t in metrics.IOU_THRESHOLDS:
        head_f, tail_f, hmean_f, per_c = oracle_report_balanced_f1(pred_segs, gt_segs,
                                                                   matches[t], split, vocab)
        balanced[f"f1@{t:.2f}"] = {"head": head_f, "tail": tail_f, "hmean": hmean_f}
        per_class[f"f1@{t:.2f}"] = {c: v for c, v in per_c.items() if c not in excluded}

    fp_counts = {"tp": 0, "fp1": 0, "fp2": 0, "fp3": 0}
    for segs, seq_matches, seq, k in zip(pred_segs, matches[metrics.TAXONOMY_IOU],
                                         dataset.sequences, gt_groups):
        counts = oracle_fp_taxonomy(segs, seq_matches, seq, spec, prior, int(k))
        for key in fp_counts:
            fp_counts[key] += counts[key]

    gid = metrics.group_id_accuracy([p.group for p in predictions], list(gt_groups))
    return metrics.MetricsReport(
        global_metrics=global_metrics,
        balanced=balanced,
        fp_counts=fp_counts,
        group_id_accuracy=gid,
        head_tail=split,
        per_class=per_class,
    )


def random_prediction(rng, gt, num_classes):
    """A prediction of GT labels ``gt`` of one of the kinds the report must score."""
    kind = rng.integers(6)
    if kind == 0:  # exact
        return gt.copy()
    if kind == 1:  # frame noise: fragments of one GT segment overlap it together
        return np.where(rng.random(gt.size) < 0.15, rng.integers(0, num_classes, gt.size), gt)
    if kind == 2:  # all wrong
        return (gt + 1) % num_classes
    if kind == 3:  # shifted boundaries
        return np.roll(gt, int(rng.integers(-5, 6)))
    if kind == 4:  # one prediction covering two GT segments of its class
        segs = segments_from_frames(gt)
        labels = gt.copy()
        for a, b, c in zip(segs, segs[1:], segs[2:]):
            if a.label == c.label:
                labels[b.start:b.end] = a.label
        return labels
    return rng.integers(0, num_classes, gt.size)  # random frames


def report_of(preds, gts, num_classes=None):
    """``compute_report`` of one-activity sequences labelled ``gts`` and predicted
    as ``preds``, over classes named "0", "1", ... (default: up to the largest label)."""
    num_classes = num_classes or 1 + max(int(np.max(a)) for a in (*preds, *gts))
    vocab = gtla.ClassVocab(tuple(str(c) for c in range(num_classes)))
    corpus = gtla.Corpus(vocab, [gtla.FrameSeq(g, activity="a", id=f"s{i}")
                                 for i, g in enumerate(gts)],
                         [gtla.FeatureMatrix(np.zeros((1, len(g)))) for g in gts])
    spec = gtla.build_group_spec(corpus, gtla.ByActivity())
    split = metrics.HeadTailSplit(vocab.names, (), 1.0, 1.0)
    predictions = [gtla.Prediction(f"s{i}", 0, np.asarray(p), np.zeros(1))
                   for i, p in enumerate(preds)]
    return gtla.compute_report(predictions, corpus, spec, gtla.extract_priors(corpus, spec),
                               split, [0] * len(gts))


def mof(preds, gts):
    return report_of(preds, gts).global_metrics["mof"]


def recall(preds, gts, num_classes):
    """Per-class recall of ``report_of``, keyed by class id."""
    per_class = report_of(preds, gts, num_classes).per_class["recall"]
    return {int(name): value for name, value in per_class.items()}


class TestMof:
    def test_perfect(self):
        assert mof([np.array([1, 2])], [np.array([1, 2])]) == 100.0

    def test_all_wrong(self):
        assert mof([np.array([1, 1])], [np.array([2, 2])]) == 0.0

    def test_three_of_four(self):
        assert mof([np.array([1, 1, 1, 0])], [np.array([1, 1, 1, 1])]) == 75.0

    def test_invariant_to_sequence_order(self, rng):
        preds = [rng.integers(0, 3, size=n) for n in (5, 9, 4)]
        gts = [rng.integers(0, 3, size=p.size) for p in preds]
        assert mof(preds, gts) == mof(preds[::-1], gts[::-1])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mof([np.array([1])], [np.array([1, 2])])


class TestPerClassRecall:
    def test_perfect(self):
        assert recall([np.array([0, 1, 1])], [np.array([0, 1, 1])], 2) == {0: 100.0, 1: 100.0}

    def test_absent_prediction_is_zero(self):
        assert recall([np.array([0, 0])], [np.array([0, 1])], 2)[1] == 0.0

    def test_zero_gt_classes_excluded(self):
        assert set(recall([np.array([0])], [np.array([0])], 3)) == {0}

    def test_recall_unaffected_by_other_class_frequency(self, rng):
        # Duplicating every frame of one class leaves other recalls unchanged.
        gt = np.array([0, 0, 1, 2, 2])
        pred = np.array([0, 1, 1, 2, 0])
        base = recall([pred], [gt], 3)
        gt2 = np.concatenate([gt, [0] * 10])
        pred2 = np.concatenate([pred, [0] * 10])
        dup = recall([pred2], [gt2], 3)
        assert dup[1] == base[1] and dup[2] == base[2]

    def test_paper_harmonic_mean_values(self):
        # Reported head/tail pairs reproduce their published harmonic means.
        assert metrics.harmonic_mean(69.7, 39.8) == pytest.approx(50.7, abs=0.05)
        assert metrics.harmonic_mean(53.3, 38.7) == pytest.approx(44.8, abs=0.05)


class TestEditScore:
    def test_identical(self):
        assert gtla.edit_score([1, 2, 3], [1, 2, 3]) == 100.0

    def test_disjoint_equal_length(self):
        assert gtla.edit_score([1, 2], [3, 4]) == 0.0

    def test_single_deletion(self):
        assert gtla.edit_score([1, 2, 3], [1, 3]) == pytest.approx(100 * 2 / 3)

    def test_accepts_segments(self):
        labels = [s.label for s in (Segment(1, 0, 3), Segment(2, 3, 5))]
        assert gtla.edit_score(labels, labels) == 100.0

    def test_empty_both(self):
        assert gtla.edit_score([], []) == 100.0

    def test_matches_oracle_on_random_pairs(self, rng):
        for _ in range(500):
            a = rng.integers(0, 4, size=rng.integers(0, 11)).tolist()
            b = rng.integers(0, 4, size=rng.integers(0, 11)).tolist()
            expected = oracle_levenshtein(a, b)
            assert metrics.levenshtein(a, b) == expected
            longest = max(len(a), len(b))
            if longest:
                assert gtla.edit_score(a, b) == 100.0 * (1 - expected / longest)


class TestF1AtIoU:
    def test_exact_segmentation_is_perfect(self, rng):
        labels = rng.integers(0, 3, size=30)
        segs = segments_from_frames(labels)
        for threshold in metrics.IOU_THRESHOLDS:
            # all matched, none spurious or missed: precision = recall = 1
            assert metrics.match_counts(segs, segs, threshold) == (len(segs), 0, 0)
            assert f1_at(segs, segs, threshold) == 1.0

    def test_half_overlap_is_third_iou(self):
        pred = [Segment(1, 0, 10)]
        gt = [Segment(1, 5, 15)]
        assert f1_at(pred, gt, 1 / 3) == 1.0  # IoU 5/15 rounds to the float 1 / 3
        assert f1_at(pred, gt, np.nextafter(1 / 3, 1)) == 0.0
        assert f1_at(pred, gt, 0.25) == 1.0   # TP at 0.25
        assert f1_at(pred, gt, 0.50) == 0.0   # FP at 0.50

    def test_duplicate_predictions_consume_gt_once(self):
        gt = [Segment(1, 0, 10)]
        pred = [Segment(1, 0, 10), Segment(1, 1, 9)]
        tp, fp, fn = metrics.match_counts(pred, gt, 0.25)
        assert (tp, fp, fn) == (1, 1, 0)

    def test_wrong_class_never_matches(self):
        assert metrics.match_counts([Segment(1, 0, 10)], [Segment(2, 0, 10)],
                                    0.1) == (0, 1, 1)

    def test_monotone_in_threshold(self, rng):
        for _ in range(50):
            pred = segments_from_frames(rng.integers(0, 3, size=20))
            gt = segments_from_frames(rng.integers(0, 3, size=20))
            f1s = [f1_at(pred, gt, t) for t in (0.1, 0.25, 0.5, 0.75)]
            assert all(a >= b - 1e-12 for a, b in zip(f1s, f1s[1:]))

    def test_greedy_matches_exhaustive_on_all_small_instances(self):
        # every pair of binary label sequences of length 6 (<= 6 segments each); which
        # prediction stays unmatched decides FP2 against FP3, so the GT indices must
        # equal the per-sequence reference's, not only their number
        for a in product(range(2), repeat=6):
            for b in product(range(2), repeat=6):
                pred = segments_from_frames(np.array(a))
                gt = segments_from_frames(np.array(b))
                candidates = oracle_candidates(pred, gt)
                for threshold in (0.25, 0.5):
                    matches = metrics.match_segments(pred, gt, threshold)
                    assert matches == oracle_matching(candidates, threshold)
                    tp = sum(m is not None for m in matches)
                    assert tp == oracle_max_matching(pred, gt, threshold)

    def test_greedy_matches_exhaustive_on_random_instances(self, rng):
        for _ in range(300):
            pred = segments_from_frames(rng.integers(0, 3, size=12))
            gt = segments_from_frames(rng.integers(0, 3, size=12))
            if len(pred) > 6 or len(gt) > 6:
                continue
            for threshold in metrics.IOU_THRESHOLDS:
                tp = metrics.match_counts(pred, gt, threshold)[0]
                assert tp == oracle_max_matching(pred, gt, threshold)


class TestHeadTailSplit:
    def corpus(self, counts):
        vocab = gtla.ClassVocab(tuple(counts))
        labels = np.concatenate([np.full(n, vocab.id_of(c))
                                 for c, n in counts.items()])
        return gtla.Corpus(vocab,
                           [gtla.FrameSeq(labels, activity="x", id="s0")],
                           [gtla.FeatureMatrix(np.zeros((1, labels.size)))])

    def test_basic_split_and_ratio(self):
        split = gtla.head_tail_split(self.corpus({"A": 100, "B": 5}), 50)
        assert split.head == ("A",) and split.tail == ("B",)
        assert split.imbalance_ratio == pytest.approx(20.0)

    def test_all_head_flags_degenerate(self, caplog):
        with caplog.at_level("WARNING"):
            split = gtla.head_tail_split(self.corpus({"A": 100, "B": 90}), 50)
        assert split.head == ("A", "B") and split.tail == ()
        assert any("tail" in m for m in caplog.messages)

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            gtla.head_tail_split(self.corpus({"A": 1}), 0)

    def test_boundary_is_head(self):
        split = gtla.head_tail_split(self.corpus({"A": 50, "B": 49}), 50)
        assert split.head == ("A",) and split.tail == ("B",)


class TestBalancedF1:
    def split(self, head, tail):  # class c is named str(c)
        return metrics.HeadTailSplit(tuple(map(str, head)), tuple(map(str, tail)), 1.0, 1.0)

    def test_never_predicted_tail_is_zero(self):
        gt = [segments_from_frames(np.array([0, 0, 1, 1]))]
        pred = [segments_from_frames(np.array([0, 0, 0, 0]))]
        head, tail, hmean, _ = balanced_f1_at(pred, gt, 0.25, self.split({0}, {1}))
        assert tail == 0.0 and hmean == 0.0

    def test_equal_head_tail_hmean(self):
        labels = np.array([0, 0, 1, 1])
        segs = [segments_from_frames(labels)]
        head, tail, hmean, _ = balanced_f1_at(segs, segs, 0.25, self.split({0}, {1}))
        assert head == tail == hmean == 100.0

    def test_absent_classes_excluded(self):
        labels = np.array([0, 0])
        segs = [segments_from_frames(labels)]
        head, tail, hmean, per_class = balanced_f1_at(
            segs, segs, 0.25, self.split({0}, {1, 2}))
        assert set(per_class) == {"0"}
        assert hmean == head  # empty tail side degenerates to the head value

    def test_one_matching_gives_the_per_class_rematching_values(self, rng):
        # match_segments only pairs same-class segments, so the per-class
        # counts read from one matching equal a separate matching per class
        for _ in range(200):
            num_classes = int(rng.integers(2, 6))
            split = self.split(range(num_classes // 2), range(num_classes // 2, num_classes))
            gt, pred = [], []
            for _ in range(int(rng.integers(1, 4))):
                labels = rng.integers(0, num_classes, size=int(rng.integers(1, 30)))
                noisy = np.where(rng.random(labels.size) < 0.3,
                                 rng.integers(0, num_classes, size=labels.size), labels)
                gt.append(segments_from_frames(labels))
                pred.append(segments_from_frames(noisy))
            for threshold in metrics.IOU_THRESHOLDS:
                *averages, per_class = balanced_f1_at(pred, gt, threshold, split)
                *expected, oracle = oracle_balanced_f1(pred, gt, threshold, split)
                assert per_class == oracle
                assert averages == pytest.approx(expected, rel=1e-12, abs=0.0)


class TestFpTaxonomy:
    def build(self):
        vocab = gtla.ClassVocab(("idle", "go_x", "rare_x", "go_y"))
        seqs = [
            gtla.FrameSeq(np.array([0] * 4 + [1] * 8 + [2] * 4 + [1] * 8),
                          activity="x", id="x0"),
            gtla.FrameSeq(np.array([0] * 4 + [3] * 12), activity="y", id="y0"),
        ]
        feats = [gtla.FeatureMatrix(np.zeros((1, s.num_frames))) for s in seqs]
        corpus = gtla.Corpus(vocab, seqs, feats)
        spec = gtla.build_group_spec(corpus, gtla.ByActivity())
        prior = gtla.extract_priors(corpus, spec)
        return corpus, spec, prior

    def test_perfect_prediction_all_tp(self):
        corpus, spec, prior = self.build()
        seq = corpus.sequences[0]
        counts = taxonomy(segments_from_frames(seq), seq, spec, prior)
        assert counts["tp"] == len(segments_from_frames(seq))
        assert counts["fp1"] == counts["fp2"] == counts["fp3"] == 0

    def test_foreign_group_classes_are_fp1(self):
        corpus, spec, prior = self.build()
        seq = corpus.sequences[0]  # activity x; go_y is group y exclusive
        pred = [Segment(corpus.vocab.id_of("go_y"), 0, seq.num_frames)]
        counts = taxonomy(pred, seq, spec, prior)
        assert counts == {"tp": 0, "fp1": 1, "fp2": 0, "fp3": 0}

    def test_order_violations_are_fp2(self):
        corpus, spec, prior = self.build()
        seq = corpus.sequences[0]
        rare = corpus.vocab.id_of("rare_x")
        # rare_x must be preceded by idle (frames 0..3): predicting it during
        # the idle run puts its midpoint before the window opens
        k = spec.group_of(seq)
        local = gtla.relabel_for_group(seq, spec, k)
        lo, hi = priors.bounds_matrix(local, prior.groups[k])
        lo = lo[spec.classes_of_group[k].index(rare)]
        assert lo == 3
        pred = [Segment(rare, 0, 2)]
        assert (pred[0].start + pred[0].end) // 2 < lo
        counts = taxonomy(pred, seq, spec, prior)
        assert counts == {"tp": 0, "fp1": 0, "fp2": 1, "fp3": 0}

    def test_in_window_misses_are_fp3(self):
        corpus, spec, prior = self.build()
        seq = corpus.sequences[0]
        go = corpus.vocab.id_of("go_x")
        # inside go_x's window but overlapping neither GT go_x segment enough
        pred = [Segment(go, 12, 14)]
        counts = taxonomy(pred, seq, spec, prior)
        assert counts == {"tp": 0, "fp1": 0, "fp2": 0, "fp3": 1}

    def test_gt_frames_outside_the_group(self):
        # scored against group y, sequence x0's go_x/rare_x frames are
        # ``others``; go_y must follow idle, whose last frame is 3
        corpus, spec, prior = self.build()
        seq, go_y = corpus.sequences[0], corpus.vocab.id_of("go_y")
        k = spec.group_of(corpus.sequences[1])
        assert k != spec.group_of(seq)
        pred = [Segment(go_y, 0, 2), Segment(go_y, 10, 20)]
        counts = taxonomy(pred, seq, spec, prior, k)
        assert counts == {"tp": 0, "fp1": 0, "fp2": 1, "fp3": 1}

    def test_counts_partition_predictions(self, rng):
        corpus, spec, prior = self.build()
        seq = corpus.sequences[0]
        for _ in range(30):
            labels = rng.integers(0, 4, size=seq.num_frames)
            pred = segments_from_frames(labels)
            counts = taxonomy(pred, seq, spec, prior)
            assert sum(counts.values()) == len(pred)


class TestGroupIdAccuracy:
    def test_all_correct(self):
        assert gtla.group_id_accuracy([0, 1, 2], [0, 1, 2]) == 100.0

    def test_single_group_always_right(self):
        assert gtla.group_id_accuracy([0] * 5, [0] * 5) == 100.0

    def test_partial(self):
        assert gtla.group_id_accuracy([0, 0, 1, 1], [0, 1, 1, 0]) == 50.0

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError) as exc:
            gtla.group_id_accuracy([0, 1], [0])
        assert exc.type is ValueError
        assert str(exc.value).startswith("prediction/ground-truth length mismatch")


class TestComputeReport:
    def build_eval(self, rng):
        cfg = gtla.longtail_benchmark_config(seed=4, train_per_activity=4,
                                             test_per_activity=2)
        train, test = gtla.synth_generate(cfg)
        spec = gtla.build_group_spec(train, gtla.ByActivity())
        prior = gtla.extract_priors(train, spec)
        split = gtla.head_tail_split(train, 300)
        return train, test, spec, prior, split

    def test_oracle_predictions_are_perfect(self, rng):
        train, test, spec, prior, split = self.build_eval(rng)
        preds = []
        gt_groups = []
        for seq in test.sequences:
            k = spec.group_of(seq)
            gt_groups.append(k)
            preds.append(gtla.Prediction(seq.id, k, seq.labels.copy(), np.zeros(spec.n)))
        report = gtla.compute_report(preds, test, spec, prior, split, gt_groups)
        assert report.global_metrics["mof"] == 100.0
        assert report.global_metrics["edit"] == 100.0
        for t in metrics.IOU_THRESHOLDS:
            assert report.global_metrics[f"f1@{t:.2f}"] == 100.0
            assert report.balanced[f"f1@{t:.2f}"]["hmean"] == 100.0
        assert report.balanced["recall"]["hmean"] == 100.0
        assert report.fp_counts["fp1"] == report.fp_counts["fp2"] == 0
        assert report.group_id_accuracy == 100.0

    def test_hmean_consistency_and_json_schema(self, rng, tmp_path):
        import json

        train, test, spec, prior, split = self.build_eval(rng)
        params = gtla.init_params(gtla.BackboneConfig(
            in_dim=test.feature_dim, hidden=4, num_layers=1,
            head_sizes=spec.head_sizes(), seed=0))
        preds = gtla.predict_corpus(params, test, spec)
        gt_groups = [spec.group_of(s) for s in test.sequences]
        report = gtla.compute_report(preds, test, spec, prior, split, gt_groups)
        rec = report.balanced["recall"]
        if rec["head"] + rec["tail"] > 0:
            assert rec["hmean"] == pytest.approx(
                metrics.harmonic_mean(rec["head"], rec["tail"]))
        assert sum(report.fp_counts.values()) == sum(
            len(segments_from_frames(p.labels)) for p in preds)
        report.save(tmp_path / "report.json")
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["version"] == 1
        for key in ("global", "balanced", "fp_taxonomy", "group_id_accuracy",
                    "head_tail", "per_class"):
            assert key in payload

    def test_max_matching_runs_only_for_contested_sequences(self, rng, monkeypatch):
        train, test, spec, prior, split = self.build_eval(rng)
        preds = []
        for i, s in enumerate(test.sequences):
            labels = s.labels.copy()
            if i % 2:  # a one-frame error splits a segment: two predictions overlap it
                for seg in segments_from_frames(s)[::2]:
                    labels[(seg.start + seg.end) // 2] = (seg.label + 1) % len(test.vocab)
            preds.append(gtla.Prediction(s.id, spec.group_of(s), labels, np.zeros(spec.n)))
        gt_groups = [spec.group_of(s) for s in test.sequences]
        calls, max_matching = [], metrics._max_matching

        def counted(options):
            calls.append(len(options))
            return max_matching(options)

        monkeypatch.setattr(metrics, "_max_matching", counted)
        gtla.compute_report(preds, test, spec, prior, split, gt_groups)
        contested = []  # (sequence, threshold) where a segment has two candidates
        for n, (p, s) in enumerate(zip(preds, test.sequences)):
            pred_segs, gt_segs = segments_from_frames(p.labels), segments_from_frames(s)
            for t in metrics.IOU_THRESHOLDS:
                edges = [(i, j) for i, a in enumerate(pred_segs) for j, b in enumerate(gt_segs)
                         if a.label == b.label and oracle_segment_iou(a, b) >= t]
                degrees = Counter(("pred", i) for i, _ in edges) + Counter(("gt", j) for _, j in edges)
                if max(degrees.values(), default=0) > 1:
                    contested.append((n, t))
        assert 0 < len(contested) < len(metrics.IOU_THRESHOLDS) * len(test.sequences)
        num_segments = [len(segments_from_frames(p.labels)) for p in preds]
        assert sorted(calls) == sorted(num_segments[n] for n, _ in contested)

    @pytest.mark.parametrize("mode", ["activity", "cluster"])
    def test_matches_per_sequence_oracle(self, rng, mode):
        """The segment-table report is byte-identical to the per-sequence one."""
        for case in range(12):
            cfg = gtla.longtail_benchmark_config(seed=case, train_per_activity=3,
                                                 test_per_activity=2)
            train, test = gtla.synth_generate(cfg)
            num_classes = len(test.vocab)
            seqs = list(test.sequences)
            for i in range(int(rng.integers(0, 3))):  # 1-frame sequences
                seqs.append(gtla.FrameSeq(seqs[i].labels[-1:], activity=seqs[i].activity,
                                          id=f"one{i}"))
            for seq in seqs:  # a GT segment split in two by another class
                if rng.random() < 0.3 and seq.num_frames > 12:
                    seq.labels[seq.num_frames // 2] = (seq.labels[seq.num_frames // 2] + 1) \
                        % num_classes
            test = gtla.Corpus(test.vocab, seqs,
                               [gtla.FeatureMatrix(np.zeros((1, s.num_frames))) for s in seqs])
            groups = gtla.ByActivity() if mode == "activity" else gtla.ByClustering(3)
            spec = gtla.build_group_spec(train, groups)
            prior = gtla.extract_priors(train, spec)
            split = gtla.head_tail_split(train, float(rng.choice([50, 300, 1000])))
            gt_groups = [spec.group_of(s) if mode == "activity" else
                         spec.nearest_group(s, test.vocab) for s in seqs]
            preds = [gtla.Prediction(s.id, int(rng.integers(spec.n)) if rng.random() < 0.3 else k,
                                     random_prediction(rng, s.labels, num_classes),
                                     np.zeros(spec.n))
                     for s, k in zip(seqs, gt_groups)]
            excluded = tuple(rng.choice(test.vocab.names, size=int(rng.integers(0, 3)),
                                        replace=False).tolist())
            args = (preds, test, spec, prior, split, gt_groups, excluded)
            report = gtla.compute_report(*args).to_dict()
            assert json.dumps(report, sort_keys=True) == \
                json.dumps(oracle_compute_report(*args).to_dict(), sort_keys=True)

    def test_never_imports_numpy_ma(self):
        # np.unique's first call imports numpy.ma: about 12 ms and 1.7 MB per eval process.
        script = (
            "import sys, numpy as np, gtla\n"
            "train, test = gtla.synth_generate(gtla.longtail_benchmark_config("
            "seed=0, train_per_activity=3, test_per_activity=2))\n"
            "spec = gtla.build_group_spec(train, gtla.ByActivity())\n"
            "groups = [spec.group_of(s) for s in test.sequences]\n"
            "preds = [gtla.Prediction(s.id, k, np.roll(s.labels, 3), np.zeros(spec.n))\n"
            "         for s, k in zip(test.sequences, groups)]\n"
            "gtla.compute_report(preds, test, spec, gtla.extract_priors(train, spec),\n"
            "                    gtla.head_tail_split(train, 300), groups)\n"
            "print('numpy.ma' in sys.modules)\n")
        src = str(Path(gtla.__file__).resolve().parents[1])
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                env={**os.environ, "PYTHONPATH": src}, check=True)
        assert result.stdout == "False\n"

    def test_exclude_classes_drops_from_averages(self, rng):
        train, test, spec, prior, split = self.build_eval(rng)
        preds = [gtla.Prediction(s.id, spec.group_of(s), s.labels.copy(), np.zeros(spec.n))
                 for s in test.sequences]
        gt_groups = [spec.group_of(s) for s in test.sequences]
        report = gtla.compute_report(preds, test, spec, prior, split, gt_groups,
                                     exclude_classes=("idle",))
        assert "idle" not in report.per_class["recall"]
        assert "idle" not in report.head_tail.head + report.head_tail.tail
