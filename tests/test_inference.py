import multiprocessing
import os
import time

import numpy as np
import pytest

import gtla
from gtla import inference
from gtla.errors import ConfigError

from conftest import tiny_problem


def spec_two_groups():
    vocab = gtla.ClassVocab(("a", "b", "c"))
    corpus = gtla.Corpus(
        vocab,
        [gtla.FrameSeq(np.array([0, 1, 1]), activity="x", id="s0"),
         gtla.FrameSeq(np.array([2, 2, 2]), activity="y", id="s1")],
        [gtla.FeatureMatrix(np.zeros((2, 3))) for _ in range(2)])
    return gtla.build_group_spec(corpus, gtla.ByActivity()), corpus


class TestIdentifyGroup:
    """The group rule of ``decode``: lowest mean ``others`` probability."""

    def test_single_group(self):
        corpus, spec, _, _ = tiny_problem(np.random.default_rng(3), max_groups=1)
        logits = [np.zeros((spec.head_sizes()[0], 5))]
        assert inference.decode(logits, spec).group == 0

    def test_lowest_others_probability_wins(self):
        spec, _ = spec_two_groups()
        g0 = np.zeros((3, 4))
        g0[spec.others_id(0)] = -5.0  # low others prob
        g1 = np.zeros((2, 4))
        g1[spec.others_id(1)] = +5.0  # high others prob
        assert inference.decode([g0, g1], spec).group == 0
        g0[spec.others_id(0)] = +9.0
        assert inference.decode([g0, g1], spec).group == 1

    def test_exact_tie_picks_lowest_index(self):
        vocab = gtla.ClassVocab(("a", "b", "c", "d"))
        corpus = gtla.Corpus(
            vocab,
            [gtla.FrameSeq(np.array([0, 1]), activity="x", id="s0"),
             gtla.FrameSeq(np.array([2, 3]), activity="y", id="s1")],
            [gtla.FeatureMatrix(np.zeros((2, 2))) for _ in range(2)])
        spec = gtla.build_group_spec(corpus, gtla.ByActivity())
        assert spec.head_sizes() == (3, 3)
        logits = [np.zeros((3, 4)), np.zeros((3, 4))]  # identical: exact tie
        assert inference.decode(logits, spec).group == 0
        # Zeroed heads give both groups the same all-zero logits: an exact tie.
        params = gtla.init_params(gtla.BackboneConfig(in_dim=2, head_sizes=(3, 3)))
        for name in ("head0.w", "head0.b", "head1.w", "head1.b"):
            params.values[name][...] = 0.0
        pred = inference.predict_sequence(np.ones((2, 4)), params, spec)
        assert pred.others_prob[0] == pred.others_prob[1]
        assert pred.group == 0

    def test_constant_rescaling_invariance(self, rng):
        spec, _ = spec_two_groups()
        backbone = gtla.BackboneConfig(in_dim=2, head_sizes=spec.head_sizes())
        params = gtla.init_params(backbone, rng)
        features = rng.standard_normal((2, 6))
        base = inference.decode(gtla.forward(features, params).logits, spec).group
        pred = inference.predict_sequence(features, params, spec)
        assert pred.group == base
        # scaling all others probabilities by one positive constant keeps argmin
        scaled = [p * 3.7 for p in pred.others_prob]
        assert int(np.argmin(scaled)) == base

    def test_per_frame_rescaling_under_dominance(self, rng):
        # When one group's others probability is lowest at every frame,
        # any positive per-frame weighting keeps the argmin.
        for _ in range(20):
            per_frame = rng.random((3, 8)) + 0.1
            dominant = rng.integers(0, 3)
            per_frame[dominant] = per_frame.min(axis=0) * 0.5
            weights = rng.random(8) * 4 + 0.1
            means = (per_frame * weights).mean(axis=1)
            assert int(np.argmin(means)) == dominant


class TestDecodeLabels:
    """The labels of ``decode``: argmax over the chosen group's real classes."""

    def test_others_excluded_even_if_max(self):
        spec, _ = spec_two_groups()
        logits = np.zeros((3, 4))
        logits[spec.others_id(0)] = 10.0  # others wins the raw argmax
        logits[1, :] = 1.0                # best real class is local 1
        g1 = np.zeros((2, 4))
        g1[spec.others_id(1)] = 20.0      # so group 0 is chosen
        pred = inference.decode([logits, g1], spec)
        assert pred.group == 0
        mapping = spec.classes_of_group[0]
        assert pred.labels.tolist() == [mapping[1]] * 4

    def test_single_real_class(self):
        spec, _ = spec_two_groups()
        g0 = np.zeros((3, 3))
        g0[spec.others_id(0)] = 5.0       # so group 1 is chosen
        pred = inference.decode([g0, np.zeros((2, 3))], spec)
        assert pred.group == 1
        assert pred.labels.tolist() == [spec.classes_of_group[1][0]] * 3

    def test_closure_over_group_classes(self, rng):
        spec, _ = spec_two_groups()
        g1 = np.zeros((2, 7))
        g1[spec.others_id(1)] = 50.0      # so group 0 is chosen
        for _ in range(30):
            logits = rng.standard_normal((3, 7)) * 3
            pred = inference.decode([logits, g1], spec)
            assert pred.group == 0
            assert set(pred.labels.tolist()) <= set(spec.classes_of_group[0])

    def test_tie_breaks_to_lowest_local_index(self):
        spec, _ = spec_two_groups()
        # all-zero logits: others probability 1/3 in group 0, 1/2 in group 1
        pred = inference.decode([np.zeros((3, 2)), np.zeros((2, 2))], spec)
        assert pred.group == 0
        assert pred.labels.tolist() == [spec.classes_of_group[0][0]] * 2


class TestPredictCorpus:
    def test_untrained_model_is_well_formed(self, rng):
        corpus, spec, prior, params = tiny_problem(rng)
        preds = gtla.predict_corpus(params, corpus, spec)
        assert len(preds) == len(corpus)
        for pred, seq in zip(preds, corpus.sequences):
            assert pred.labels.size == seq.num_frames
            assert set(pred.labels.tolist()) <= set(spec.classes_of_group[pred.group])
            assert pred.others_prob.shape == (spec.n,)

    def test_deterministic(self, rng):
        corpus, spec, prior, params = tiny_problem(rng)
        a = gtla.predict_corpus(params, corpus, spec)
        b = gtla.predict_corpus(params, corpus, spec)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.labels, pb.labels)
            assert np.array_equal(pa.others_prob, pb.others_prob)

    def test_shared_buffer_matches_each_sequence_alone(self, rng):
        # long -> short -> long: a stale column of the reused buffer would show.
        vocab = gtla.ClassVocab(("a", "b", "c", "d"))
        lengths, activities = (90, 7, 60), ("x", "y", "x")
        # activity x uses classes a, b; activity y uses c, d
        sequences = [gtla.FrameSeq(rng.integers(0, 2, n) + 2 * (act == "y"), act, f"s{i}")
                     for i, (n, act) in enumerate(zip(lengths, activities))]
        features = [gtla.FeatureMatrix(rng.standard_normal((5, n))) for n in lengths]
        corpus = gtla.Corpus(vocab, sequences, features)
        spec = gtla.build_group_spec(corpus, gtla.ByActivity())
        backbone = gtla.BackboneConfig(in_dim=5, head_sizes=spec.head_sizes())
        params = gtla.init_params(backbone, rng)
        preds = gtla.predict_corpus(params, corpus, spec)
        for pred, seq, feats in zip(preds, sequences, features):
            alone = inference.predict_sequence(feats, params, spec, seq_id=seq.id)
            assert (pred.seq_id, pred.group) == (alone.seq_id, alone.group)
            for field in ("labels", "others_prob"):
                assert np.array_equal(getattr(pred, field), getattr(alone, field)), field
        assert gtla.predict_corpus(params, gtla.Corpus(vocab, [], []), spec) == []

    def test_dim_mismatch_rejected(self, rng):
        corpus, spec, prior, params = tiny_problem(rng)
        bad = gtla.BackboneConfig(in_dim=corpus.feature_dim + 1, hidden=4,
                                  num_layers=1, head_sizes=spec.head_sizes())
        with pytest.raises(ConfigError, match="dim"):
            gtla.predict_corpus(gtla.init_params(bad), corpus, spec)

    def test_head_sizes_mismatch_rejected(self, rng):
        corpus, spec, prior, params = tiny_problem(rng)
        bad = gtla.BackboneConfig(in_dim=corpus.feature_dim, hidden=4, num_layers=1,
                                  head_sizes=spec.head_sizes() + (2,))
        with pytest.raises(ConfigError, match="head sizes"):
            gtla.predict_corpus(gtla.init_params(bad), corpus, spec)


class TestShardedPredictCorpus:
    """``predict_corpus`` runs one process per CPU in the affinity mask; the mask is
    patched, so these tests do not depend on the host."""

    LENGTHS = (40, 9, 75, 12, 30, 61, 5)

    @pytest.fixture
    def problem(self, rng):
        vocab = gtla.ClassVocab(("a", "b", "c", "d"))
        sequences = [gtla.FrameSeq(rng.integers(0, 2, n) + 2 * (i % 2), f"act{i % 2}", f"s{i}")
                     for i, n in enumerate(self.LENGTHS)]
        features = [gtla.FeatureMatrix(rng.standard_normal((5, n))) for n in self.LENGTHS]
        corpus = gtla.Corpus(vocab, sequences, features)
        spec = gtla.build_group_spec(corpus, gtla.ByActivity())
        params = gtla.init_params(gtla.BackboneConfig(in_dim=5, hidden=6, num_layers=2,
                                                      head_sizes=spec.head_sizes()), rng)
        return corpus, spec, params

    @staticmethod
    def cpus(monkeypatch, n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

    @staticmethod
    def patch_predict_sequence(monkeypatch, before=lambda seq_id: None,
                               after=lambda prediction: None):
        """Wrap ``predict_sequence`` with ``before(seq_id)`` and ``after(prediction)``."""
        original = inference.predict_sequence

        def patched(features, params, spec, seq_id=""):
            before(seq_id)
            prediction = original(features, params, spec, seq_id)
            after(prediction)
            return prediction

        monkeypatch.setattr(inference, "predict_sequence", patched)

    def pids(self, monkeypatch, problem):
        """(seq id, pid of the process that predicted it), in the order returned."""
        corpus, spec, params = problem

        def tag(prediction):
            prediction.seq_id = f"{prediction.seq_id}@{os.getpid()}"

        self.patch_predict_sequence(monkeypatch, after=tag)
        return [(seq_id, int(pid)) for seq_id, pid in
                (p.seq_id.split("@") for p in gtla.predict_corpus(params, corpus, spec))]

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16])
    def test_bit_identical_to_the_per_sequence_loop(self, monkeypatch, problem, n):
        corpus, spec, params = problem
        expected = [inference.predict_sequence(x, params, spec, seq_id=seq.id)
                    for seq, x in corpus]
        self.cpus(monkeypatch, n)
        got = gtla.predict_corpus(params, corpus, spec)
        assert [(p.seq_id, p.group) for p in got] == [(p.seq_id, p.group) for p in expected]
        for a, b in zip(got, expected):
            for field in ("labels", "others_prob"):
                assert getattr(a, field).dtype == getattr(b, field).dtype
                assert np.array_equal(getattr(a, field), getattr(b, field)), field
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("n", [2, 3, 7, 16])
    def test_contiguous_shards_of_about_equal_frames_the_first_in_children_the_last_in_the_caller(
            self, monkeypatch, problem, n):
        corpus, _, _ = problem
        self.cpus(monkeypatch, n)
        seen = self.pids(monkeypatch, problem)
        assert [seq_id for seq_id, _ in seen] == [s.id for s in corpus.sequences]
        shards = [pid for i, (_, pid) in enumerate(seen) if i == 0 or pid != seen[i - 1][1]]
        assert len(shards) == len(set(shards))  # contiguous
        assert shards[-1] == os.getpid() and os.getpid() not in shards[:-1]
        frames = dict.fromkeys(shards, 0)
        for (_, pid), length in zip(seen, self.LENGTHS):
            frames[pid] += length
        share = sum(self.LENGTHS) / min(n, len(corpus))
        # the caller goes on to score the corpus alone, so it takes no more than its share
        assert frames[os.getpid()] <= share, frames
        if n < len(corpus):  # each cut lies within one sequence of its equal-frames target
            assert len(shards) == n
            assert all(abs(f - share) <= max(self.LENGTHS) for f in frames.values()), frames
        else:  # cuts that fall on the same boundary give one shard, never an empty one
            assert 1 < len(shards) <= len(corpus)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("mask", ["one-cpu", "unknown"])
    def test_one_cpu_or_an_unknown_mask_runs_in_the_caller(self, monkeypatch, problem, mask):
        if mask == "one-cpu":
            self.cpus(monkeypatch, 1)
        else:  # as where fork does not exist either
            monkeypatch.delattr(os, "sched_getaffinity")
            monkeypatch.setattr(multiprocessing, "get_context", None)
        assert {pid for _, pid in self.pids(monkeypatch, problem)} == {os.getpid()}

    def test_empty_corpus_gives_no_predictions(self, monkeypatch, problem):
        corpus, spec, params = problem
        self.cpus(monkeypatch, 4)
        assert gtla.predict_corpus(params, gtla.Corpus(corpus.vocab, [], []), spec) == []
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("n", [2, 3])
    def test_an_error_in_a_child_is_raised_in_the_caller(self, monkeypatch, problem, n):
        corpus, spec, params = problem
        first = corpus.sequences[0].id  # in the first shard, so in a child

        def fail(seq_id):
            if seq_id == first:
                raise ConfigError(f"cannot predict {seq_id}")

        self.patch_predict_sequence(monkeypatch, before=fail)
        self.cpus(monkeypatch, n)
        with pytest.raises(ConfigError, match=f"^cannot predict {first}$"):
            gtla.predict_corpus(params, corpus, spec)
        assert multiprocessing.active_children() == []

    def test_a_child_that_dies_names_its_exit_code(self, monkeypatch, problem):
        corpus, spec, params = problem
        caller, first = os.getpid(), corpus.sequences[0].id

        def die(seq_id):
            if seq_id == first and os.getpid() != caller:  # never exit the test runner
                os._exit(7)

        self.patch_predict_sequence(monkeypatch, before=die)
        self.cpus(monkeypatch, 2)
        with pytest.raises(ChildProcessError, match="exited with code 7"):
            gtla.predict_corpus(params, corpus, spec)
        assert multiprocessing.active_children() == []

    def test_an_error_in_the_callers_shard_terminates_the_children(self, monkeypatch,
                                                                  problem):
        corpus, spec, params = problem
        caller, last = os.getpid(), corpus.sequences[-1].id

        def stall_or_fail(seq_id):
            if os.getpid() != caller:
                time.sleep(60)  # a child still busy when the caller fails
            elif seq_id == last:
                raise ValueError("caller failed")

        self.patch_predict_sequence(monkeypatch, before=stall_or_fail)
        self.cpus(monkeypatch, 3)
        started = time.monotonic()
        with pytest.raises(ValueError, match="^caller failed$"):
            gtla.predict_corpus(params, corpus, spec)
        assert time.monotonic() - started < 30  # terminated, not waited for
        assert multiprocessing.active_children() == []


class TestWritePredictions:
    def test_files_and_sidecars(self, tmp_path, rng):
        corpus, spec, prior, params = tiny_problem(rng)
        preds = gtla.predict_corpus(params, corpus, spec)
        inference.write_predictions(preds, corpus.vocab, tmp_path)
        for pred in preds:
            lines = (tmp_path / f"{pred.seq_id}.txt").read_text().splitlines()
            assert len(lines) == pred.labels.size
            assert all(name in corpus.vocab.index for name in lines)
            import json
            sidecar = json.loads((tmp_path / f"{pred.seq_id}.json").read_text())
            assert sidecar["group"] == pred.group
            assert len(sidecar["others_prob"]) == spec.n
