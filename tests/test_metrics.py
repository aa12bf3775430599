from itertools import product

import numpy as np
import pytest

import gtla
from gtla import metrics, priors
from gtla.data import Segment, segments_from_frames


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
              if gt.label == p.label and metrics.segment_iou(p, gt) >= threshold]
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
    per_class = {c: metrics.f1_from_counts(tp[c], fp[c], fn[c]) * 100.0 for c in tp}
    head, tail, hmean = metrics._split_average(per_class, split)
    return head, tail, hmean, per_class


def balanced_f1_at(pred, gt, threshold, split):
    """balanced_f1 on freshly matched segments at one threshold."""
    matches = [metrics.match_segments(p, g, threshold) for p, g in zip(pred, gt)]
    return metrics.balanced_f1(pred, gt, matches, split)


def f1_at(pred_segments, gt_segments, threshold):
    """Segment F1 at one IoU threshold, counted as ``compute_report`` counts it."""
    return metrics.f1_from_counts(*metrics.match_counts(pred_segments, gt_segments, threshold))


def taxonomy(pred, seq, spec, prior):
    """fp_taxonomy of one sequence in its own group, matched at TAXONOMY_IOU."""
    matches = metrics.match_segments(pred, segments_from_frames(seq), metrics.TAXONOMY_IOU)
    return gtla.fp_taxonomy(pred, matches, seq, spec, prior, spec.group_of(seq))


def report_of(preds, gts, num_classes=None):
    """``compute_report`` of one-activity sequences labelled ``gts`` and predicted
    as ``preds``, over classes named "0", "1", ... (default: up to the largest label)."""
    num_classes = num_classes or 1 + max(int(np.max(a)) for a in (*preds, *gts))
    vocab = gtla.ClassVocab(tuple(str(c) for c in range(num_classes)))
    corpus = gtla.Corpus(vocab, [gtla.FrameSeq(g, activity="a", id=f"s{i}")
                                 for i, g in enumerate(gts)],
                         [gtla.FeatureMatrix(np.zeros((1, len(g)))) for g in gts])
    spec = gtla.build_group_spec(corpus, gtla.ByActivity())
    split = metrics.HeadTailSplit(frozenset(range(num_classes)), frozenset(), 1.0, 1.0)
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
        segs = [Segment(1, 0, 3), Segment(2, 3, 5)]
        assert gtla.edit_score(segs, segs) == 100.0

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
        assert metrics.segment_iou(pred[0], gt[0]) == pytest.approx(1 / 3)
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
        # every pair of binary label sequences of length 6 (<= 6 segments each)
        for a in product(range(2), repeat=6):
            for b in product(range(2), repeat=6):
                pred = segments_from_frames(np.array(a))
                gt = segments_from_frames(np.array(b))
                for threshold in (0.25, 0.5):
                    tp = metrics.match_counts(pred, gt, threshold)[0]
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
        assert split.head == {0} and split.tail == {1}
        assert split.imbalance_ratio == pytest.approx(20.0)

    def test_all_head_flags_degenerate(self, caplog):
        with caplog.at_level("WARNING"):
            split = gtla.head_tail_split(self.corpus({"A": 100, "B": 90}), 50)
        assert split.tail == frozenset()
        assert any("tail" in m for m in caplog.messages)

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            gtla.head_tail_split(self.corpus({"A": 1}), 0)

    def test_boundary_is_head(self):
        split = gtla.head_tail_split(self.corpus({"A": 50, "B": 49}), 50)
        assert split.head == {0} and split.tail == {1}


class TestBalancedF1:
    def split(self, head, tail):
        return metrics.HeadTailSplit(frozenset(head), frozenset(tail), 1.0, 1.0)

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
        assert set(per_class) == {0}
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
        matches = metrics.match_segments(pred, segments_from_frames(seq), 0.25)
        counts = gtla.fp_taxonomy(pred, matches, seq, spec, prior, k)
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

    def test_matches_once_per_sequence_and_threshold(self, rng, monkeypatch):
        train, test, spec, prior, split = self.build_eval(rng)
        preds = [gtla.Prediction(s.id, spec.group_of(s), np.roll(s.labels, 3), np.zeros(spec.n))
                 for s in test.sequences]
        gt_groups = [spec.group_of(s) for s in test.sequences]
        calls, candidate_calls = [], []
        candidates, max_matching = metrics._candidates, metrics._max_matching

        def counted(*args):
            calls.append(args[1])
            return max_matching(*args)

        def counted_candidates(*args):
            candidate_calls.append(args)
            return candidates(*args)

        monkeypatch.setattr(metrics, "_max_matching", counted)
        monkeypatch.setattr(metrics, "_candidates", counted_candidates)
        gtla.compute_report(preds, test, spec, prior, split, gt_groups)
        assert len(calls) == len(metrics.IOU_THRESHOLDS) * len(test.sequences)
        assert sorted(set(calls)) == sorted(metrics.IOU_THRESHOLDS)
        assert len(candidate_calls) == len(test.sequences)  # IoUs once for all thresholds

    def test_exclude_classes_drops_from_averages(self, rng):
        train, test, spec, prior, split = self.build_eval(rng)
        idle = test.vocab.id_of("idle")
        preds = [gtla.Prediction(s.id, spec.group_of(s), s.labels.copy(), np.zeros(spec.n))
                 for s in test.sequences]
        gt_groups = [spec.group_of(s) for s in test.sequences]
        report = gtla.compute_report(preds, test, spec, prior, split, gt_groups,
                                     exclude_classes=(idle,))
        assert "idle" not in report.per_class["recall"]
        assert "idle" not in report.head_classes + report.tail_classes
