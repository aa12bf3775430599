import hashlib

import numpy as np
import pytest

import gtla
from gtla import data
from gtla.errors import ConfigError, FormatError


class TestMapping:
    def test_parse(self, tmp_path):
        path = tmp_path / "mapping.txt"
        path.write_text("0 SIL\n1 pour_milk\n")
        vocab = data.load_mapping(path)
        assert len(vocab) == 2
        assert vocab.id_of("pour_milk") == 1
        assert vocab.name_of(0) == "SIL"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "mapping.txt"
        path.write_text("")
        with pytest.raises(FormatError, match="empty mapping"):
            data.load_mapping(path)

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "mapping.txt"
        path.write_text("0 a\n0 b\n")
        with pytest.raises(FormatError, match="duplicate id"):
            data.load_mapping(path)

    def test_duplicate_name(self, tmp_path):
        path = tmp_path / "mapping.txt"
        path.write_text("0 a\n1 a\n")
        with pytest.raises(FormatError, match="duplicate name"):
            data.load_mapping(path)

    def test_gap_in_ids(self, tmp_path):
        path = tmp_path / "mapping.txt"
        path.write_text("0 a\n2 b\n")
        with pytest.raises(FormatError, match="dense"):
            data.load_mapping(path)

    def test_roundtrip(self, tmp_path):
        vocab = data.ClassVocab(("x", "y", "z"))
        data.write_mapping(tmp_path / "m.txt", vocab)
        assert data.load_mapping(tmp_path / "m.txt") == vocab


class TestLabelFile:
    def test_parse(self, tmp_path):
        vocab = data.ClassVocab(("a", "b"))
        path = tmp_path / "seq.txt"
        path.write_text("a\na\nb\n")
        seq = data.load_label_file(path, vocab, activity="act")
        assert seq.labels.tolist() == [0, 0, 1]
        assert seq.activity == "act"
        assert seq.id == "seq"

    def test_unknown_name_cites_line(self, tmp_path):
        vocab = data.ClassVocab(("a",))
        path = tmp_path / "seq.txt"
        path.write_text("a\nzz\n")
        with pytest.raises(FormatError, match=r":2"):
            data.load_label_file(path, vocab)

    def test_single_line(self, tmp_path):
        vocab = data.ClassVocab(("a",))
        path = tmp_path / "seq.txt"
        path.write_text("a\n")
        assert data.load_label_file(path, vocab).num_frames == 1

    def test_empty_is_error(self, tmp_path):
        vocab = data.ClassVocab(("a",))
        path = tmp_path / "seq.txt"
        path.write_text("\n")
        with pytest.raises(FormatError, match="empty"):
            data.load_label_file(path, vocab)


class TestFeatureFile:
    def test_roundtrip(self, tmp_path):
        feats = data.FeatureMatrix(np.arange(6, dtype=np.float64).reshape(2, 3))
        data.write_features(tmp_path / "f.feat", feats)
        loaded = data.load_features(tmp_path / "f.feat", 2)
        assert loaded.dim == 2 and loaded.num_frames == 3
        assert np.array_equal(loaded.values, feats.values)

    def test_frame_major_layout(self, tmp_path):
        feats = data.FeatureMatrix(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
        data.write_features(tmp_path / "f.feat", feats)
        blob = (tmp_path / "f.feat").read_bytes()
        flat = np.frombuffer(blob, dtype="<f4", offset=16)
        # all D values of frame 0, then frame 1, ...
        assert flat.tolist() == [1.0, 4.0, 2.0, 5.0, 3.0, 6.0]

    def test_bad_magic(self, tmp_path):
        (tmp_path / "f.feat").write_bytes(b"NOTAFEAT" + b"\0" * 16)
        with pytest.raises(FormatError, match="magic"):
            data.load_features(tmp_path / "f.feat", 2)

    def test_dim_mismatch(self, tmp_path):
        feats = data.FeatureMatrix(np.zeros((2, 3)))
        data.write_features(tmp_path / "f.feat", feats)
        with pytest.raises(FormatError, match="dim is 2, expected 4"):
            data.load_features(tmp_path / "f.feat", 4)

    def test_truncated_payload(self, tmp_path):
        feats = data.FeatureMatrix(np.zeros((2, 3)))
        data.write_features(tmp_path / "f.feat", feats)
        blob = (tmp_path / "f.feat").read_bytes()
        (tmp_path / "f.feat").write_bytes(blob[:-4])  # drop one float
        with pytest.raises(FormatError, match="truncated"):
            data.load_features(tmp_path / "f.feat", 2)

    def test_trailing_bytes(self, tmp_path):
        feats = data.FeatureMatrix(np.zeros((2, 3)))
        data.write_features(tmp_path / "f.feat", feats)
        blob = (tmp_path / "f.feat").read_bytes()
        (tmp_path / "f.feat").write_bytes(blob + b"\0\0\0\0")
        with pytest.raises(FormatError, match="trailing"):
            data.load_features(tmp_path / "f.feat", 2)


class TestSegments:
    def test_run_length(self):
        seq = gtla.FrameSeq(np.array([0, 0, 1, 1, 1, 0]))
        assert data.segments_from_frames(seq) == [
            data.Segment(0, 0, 2), data.Segment(1, 2, 5), data.Segment(0, 5, 6)]

    def test_single_frame(self):
        assert data.segments_from_frames(gtla.FrameSeq(np.array([3]))) == [
            data.Segment(3, 0, 1)]

    def test_alternating(self):
        segs = data.segments_from_frames(np.array([0, 1, 0, 1]))
        assert len(segs) == 4

    def test_roundtrip_is_identity(self, rng):
        for _ in range(200):
            labels = rng.integers(0, 4, size=rng.integers(1, 40))
            segs = data.segments_from_frames(labels)
            assert np.array_equal(data.frames_from_segments(segs), labels)
            assert segs == sorted(segs, key=lambda s: s.start)
            for a, b in zip(segs, segs[1:]):
                assert a.end == b.start and a.label != b.label


def tiny_cfg(seed=0, **kwargs):
    activities = {
        "make": data.ActivityGrammar(
            mandatory=("start", "act", "stop"),
            optionals=(data.OptionalAction("extra", 0.3, (2,)),)),
    }
    durations = {name: data.DurationModel(2, 0.0)
                 for name in ("start", "act", "stop", "extra")}
    defaults = dict(activities=activities, durations=durations, feature_dim=3,
                    train_per_activity=4, test_per_activity=2, seed=seed)
    defaults.update(kwargs)
    return data.SynthConfig(**defaults)


class TestSynth:
    def test_degenerate_grammar_fixed_labels(self):
        cfg = tiny_cfg()
        cfg = data.SynthConfig(
            activities={"make": data.ActivityGrammar(("start", "act", "stop"))},
            durations=cfg.durations, feature_dim=3,
            train_per_activity=3, test_per_activity=1, seed=1)
        train, test = data.synth_generate(cfg)
        vocab = train.vocab
        expected = [vocab.id_of(n) for n in
                    ("start", "start", "act", "act", "stop", "stop")]
        for seq in train.sequences + test.sequences:
            assert seq.labels.tolist() == expected

    def test_determinism_bitwise(self, tmp_path):
        digests = []
        for run in range(2):
            train, test = data.synth_generate(tiny_cfg(seed=42))
            out = tmp_path / f"run{run}"
            data.write_corpus(train, out / "train")
            data.write_corpus(test, out / "test")
            digest = hashlib.sha256()
            for path in sorted(out.rglob("*")):
                if path.is_file():
                    digest.update(path.relative_to(out).as_posix().encode())
                    digest.update(path.read_bytes())
            digests.append(digest.hexdigest())
        assert digests[0] == digests[1]

    def test_train_test_differ(self):
        train, test = data.synth_generate(tiny_cfg(seed=3))
        assert not np.array_equal(train.features[0].values[:, :4],
                                  test.features[0].values[:, :4])

    def test_optional_inclusion_rate(self):
        # Monte-Carlo check of the configured inclusion probability.
        cfg = tiny_cfg(seed=11, train_per_activity=10000, test_per_activity=1)
        train, _ = data.synth_generate(cfg)
        extra = train.vocab.id_of("extra")
        included = sum(1 for s in train.sequences if extra in s.labels)
        assert abs(included / 10000 - 0.3) <= 0.02

    def test_optional_respects_declared_gap(self):
        train, test = data.synth_generate(tiny_cfg(seed=5, train_per_activity=200))
        vocab = train.vocab
        order = [vocab.id_of(n) for n in ("start", "act", "extra", "stop")]
        for seq in train.sequences:
            labs = data.segment_labels(seq)
            assert labs in (order, [order[0], order[1], order[3]])

    def test_duration_conservation(self):
        # Frame count of each class equals the sum of its segment lengths.
        train, _ = data.synth_generate(tiny_cfg(seed=7))
        for seq in train.sequences:
            segs = data.segments_from_frames(seq)
            for c in np.unique(seq.labels):
                seg_sum = sum(s.end - s.start for s in segs if s.label == c)
                assert seg_sum == int((seq.labels == c).sum())

    def test_contradictory_grammar_rejected(self):
        cfg = tiny_cfg()
        bad = data.SynthConfig(
            activities={"make": data.ActivityGrammar(
                ("start", "act"),
                (data.OptionalAction("act", 0.5, (1,)),))},
            durations=cfg.durations, feature_dim=3, seed=0)
        with pytest.raises(ConfigError, match="contradictory"):
            data.synth_generate(bad)

    def test_bad_probability_rejected(self):
        cfg = tiny_cfg()
        bad = data.SynthConfig(
            activities={"make": data.ActivityGrammar(
                ("start",), (data.OptionalAction("extra", 1.5, (1,)),))},
            durations=cfg.durations, feature_dim=3, seed=0)
        with pytest.raises(ConfigError, match="probability"):
            data.synth_generate(bad)

    def test_smoothing_correlates_neighbours(self):
        from gtla.data.synth import _smooth

        raw = np.random.default_rng(0).standard_normal((4, 200))
        smoothed = _smooth(raw)
        corr_raw = np.corrcoef(raw[0, :-1], raw[0, 1:])[0, 1]
        corr_s = np.corrcoef(smoothed[0, :-1], smoothed[0, 1:])[0, 1]
        assert corr_s > corr_raw + 0.3


class TestCorpusIO:
    def test_write_load_roundtrip(self, tmp_path):
        train, _ = data.synth_generate(tiny_cfg(seed=9))
        manifest = data.write_corpus(train, tmp_path)
        loaded = data.load_corpus(manifest)
        assert loaded.vocab == train.vocab
        assert len(loaded) == len(train)
        for (s1, f1), (s2, f2) in zip(loaded, train):
            assert s1.id == s2.id and s1.activity == s2.activity
            assert np.array_equal(s1.labels, s2.labels)
            assert np.array_equal(f1.values,
                                  f2.values.astype(np.float32).astype(np.float64))

    def test_manifest_missing_key(self, tmp_path):
        (tmp_path / "manifest.json").write_text('{"version": 1}')
        with pytest.raises(FormatError, match="missing manifest key"):
            data.load_corpus(tmp_path / "manifest.json")


def test_load_corpus_frame_mismatch_rejected(tmp_path):
    train, _ = data.synth_generate(tiny_cfg(seed=13))
    manifest = data.write_corpus(train, tmp_path)
    # shorten one feature file so frames no longer match the labels
    entry = train.sequences[0]
    short = data.FeatureMatrix(train.features[0].values[:, :-1])
    data.write_features(tmp_path / "features" / f"{entry.id}.feat", short)
    with pytest.raises(FormatError, match="frames"):
        data.load_corpus(manifest)


def test_write_json_is_indented_sorted_and_newline_terminated(tmp_path):
    path = tmp_path / "out.json"
    data.io.write_json(path, {"b": 1, "a": [2.5, "é"]})
    assert path.read_bytes() == b'{\n  "a": [\n    2.5,\n    "\\u00e9"\n  ],\n  "b": 1\n}\n'
    assert data.io.read_json(path) == {"a": [2.5, "é"], "b": 1}
