import hashlib
import io
import tracemalloc
from dataclasses import replace

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

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "mapping.txt"
        path.write_text("0 SIL\n\n   \n1 pour_milk\n")
        assert data.load_mapping(path) == data.ClassVocab(("SIL", "pour_milk"))

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

    def test_id_in_digits_int_cannot_parse(self, tmp_path):
        path = tmp_path / "mapping.txt"
        path.write_text("0 a\n\u00b2 b\n", encoding="utf-8")  # '²'.isdigit() holds
        with pytest.raises(FormatError) as exc:
            data.load_mapping(path)
        assert str(exc.value) == f"{path}:2: expected '<id> <name>', got '\u00b2 b'"

    def test_gap_in_ids(self, tmp_path):
        path = tmp_path / "mapping.txt"
        path.write_text("0 a\n2 b\n")
        with pytest.raises(FormatError, match="dense"):
            data.load_mapping(path)

    def test_not_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "mapping.txt"
        path.write_bytes(b"0 a\n1 b\n\xff")
        with pytest.raises(FormatError) as exc:
            data.load_mapping(path)
        assert str(exc.value).startswith(f"{path}: not UTF-8 text")

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

    def test_not_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_bytes(b"a\na\n\xff")
        with pytest.raises(FormatError) as exc:
            data.load_label_file(path, data.ClassVocab(("a",)))
        assert str(exc.value).startswith(f"{path}: not UTF-8 text")


def npy_bytes(values, **kwargs):
    """The bytes ``np.lib.format.write_array`` writes for ``values``."""
    buf = io.BytesIO()
    np.lib.format.write_array(buf, values, **kwargs)
    return buf.getvalue()


class TestFeatureFile:
    def test_roundtrip(self, tmp_path):
        feats = data.FeatureMatrix(np.arange(6, dtype=np.float64).reshape(2, 3))
        data.write_features(tmp_path / "f.npy", feats)
        loaded = data.load_features(tmp_path / "f.npy", 2)
        assert loaded.dim == 2 and loaded.num_frames == 3
        assert np.array_equal(loaded.values, feats.values)
        assert loaded.values.flags.f_contiguous and not loaded.values.flags.writeable

    def test_written_file_is_standard_npy(self, tmp_path):
        feats = data.FeatureMatrix(np.random.default_rng(0).normal(size=(3, 5)))
        data.write_features(tmp_path / "f.npy", feats)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.npy"]
        loaded = np.load(tmp_path / "f.npy", allow_pickle=False)
        assert loaded.dtype == np.dtype("<f4") and loaded.flags.f_contiguous
        assert np.array_equal(loaded, feats.values)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_np_save_output_loads_as_np_load_reads_it(self, tmp_path, order):
        values = np.random.default_rng(1).normal(size=(4, 7)).astype("<f4")
        with open(tmp_path / "f.npy", "wb") as fh:
            np.save(fh, np.asarray(values, order=order))
        loaded = data.load_features(tmp_path / "f.npy", 4).values
        reference = np.load(tmp_path / "f.npy", allow_pickle=False)
        assert np.array_equal(loaded, reference)
        assert loaded.flags.f_contiguous == (order == "F")
        assert loaded.flags.c_contiguous == (order == "C")

    def test_frame_major_layout(self, tmp_path):
        feats = data.FeatureMatrix(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
        data.write_features(tmp_path / "f.npy", feats)
        blob = (tmp_path / "f.npy").read_bytes()
        header_end = blob.index(b"\n") + 1  # the .npy header ends with a newline
        flat = np.frombuffer(blob, dtype="<f4", offset=header_end)
        # all D values of frame 0, then frame 1, ...
        assert flat.tolist() == [1.0, 4.0, 2.0, 5.0, 3.0, 6.0]

    def test_bad_magic(self, tmp_path):
        (tmp_path / "f.npy").write_bytes(b"NOTAFEAT" + b"\0" * 16)
        with pytest.raises(FormatError, match=r"f\.npy: not a 2-D little-endian float32 \.npy"):
            data.load_features(tmp_path / "f.npy", 2)

    @pytest.mark.parametrize("blob", [
        npy_bytes(np.zeros((2, 3), dtype="<f8")),
        npy_bytes(np.zeros((2, 3), dtype=">f4")),
        npy_bytes(np.zeros((2, 3, 1), dtype="<f4")),
        npy_bytes(np.zeros(6, dtype="<f4")),
        npy_bytes(np.zeros((2, 3), dtype="<f4"), version=(2, 0)),
        npy_bytes(np.zeros((2, 3), dtype="<f4"), version=(3, 0)),
        b"",
    ], ids=["float64", "big-endian", "3-D", "1-D", "version-2", "version-3", "empty"])
    def test_other_npy_is_one_error(self, tmp_path, blob):
        (tmp_path / "f.npy").write_bytes(blob)
        with pytest.raises(FormatError, match=r"f\.npy: not a 2-D little-endian float32 \.npy"):
            data.load_features(tmp_path / "f.npy", 2)

    @pytest.mark.parametrize("bit", range(16))
    def test_header_length_field_with_a_bit_flipped(self, tmp_path, bit):
        blob = bytearray(npy_bytes(np.zeros((2, 3), dtype="<f4")))
        blob[8 + bit // 8] ^= 1 << (bit % 8)  # the u16-LE header length at offset 8
        (tmp_path / "f.npy").write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=r"f\.npy: not a 2-D little-endian float32 \.npy"):
            data.load_features(tmp_path / "f.npy", 2)

    def test_non_finite_value_names_the_file(self, tmp_path):
        values = np.zeros((2, 3), dtype="<f4")
        values[1, 2] = np.nan
        (tmp_path / "f.npy").write_bytes(npy_bytes(values))
        with pytest.raises(FormatError, match=r"f\.npy: features contain non-finite values"):
            data.load_features(tmp_path / "f.npy", 2)

    def test_dim_mismatch(self, tmp_path):
        feats = data.FeatureMatrix(np.zeros((2, 3)))
        data.write_features(tmp_path / "f.npy", feats)
        with pytest.raises(FormatError, match="dim is 2, expected 4"):
            data.load_features(tmp_path / "f.npy", 4)

    def test_truncated_payload(self, tmp_path):
        feats = data.FeatureMatrix(np.zeros((2, 3)))
        data.write_features(tmp_path / "f.npy", feats)
        blob = (tmp_path / "f.npy").read_bytes()
        (tmp_path / "f.npy").write_bytes(blob[:-4])  # drop one float
        with pytest.raises(FormatError, match="truncated"):
            data.load_features(tmp_path / "f.npy", 2)

    def test_trailing_bytes(self, tmp_path):
        feats = data.FeatureMatrix(np.zeros((2, 3)))
        data.write_features(tmp_path / "f.npy", feats)
        blob = (tmp_path / "f.npy").read_bytes()
        (tmp_path / "f.npy").write_bytes(blob + b"\0\0\0\0")
        with pytest.raises(FormatError, match="trailing"):
            data.load_features(tmp_path / "f.npy", 2)


class TestFeatureMatrix:
    def test_holds_float32(self):
        feats = data.FeatureMatrix(np.arange(6, dtype=np.float64).reshape(2, 3) / 3.0)
        assert feats.values.dtype == np.float32
        assert np.array_equal(feats.values, (np.arange(6).reshape(2, 3) / 3.0).astype(np.float32))

    @pytest.mark.parametrize("value", [1e39, -1e39, np.finfo(np.float64).max])
    def test_outside_float32_range_is_one_error(self, value):
        values = np.zeros((2, 3))
        values[1, 2] = value
        with pytest.raises(ValueError, match="float32 range"):
            data.FeatureMatrix(values)

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_rejected(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            data.FeatureMatrix(np.full((2, 3), value))


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
            frames = np.repeat([s.label for s in segs], [s.end - s.start for s in segs])
            assert np.array_equal(frames, labels)
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
        with pytest.raises(ConfigError, match="contradictory"):
            data.SynthConfig(
                activities={"make": data.ActivityGrammar(
                    ("start", "act"),
                    (data.OptionalAction("act", 0.5, (1,)),))},
                durations=cfg.durations, feature_dim=3, seed=0)

    def test_bad_probability_rejected(self):
        cfg = tiny_cfg()
        with pytest.raises(ConfigError, match="probability"):
            data.SynthConfig(
                activities={"make": data.ActivityGrammar(
                    ("start",), (data.OptionalAction("extra", 1.5, (1,)),))},
                durations=cfg.durations, feature_dim=3, seed=0)

    @pytest.mark.parametrize("changes, key", [
        ({"seed": -1}, "seed"), ({"train_per_activity": 0}, "train_per_activity"),
        ({"test_per_activity": 0}, "test_per_activity"),
        ({"durations": {"start": data.DurationModel(float("nan"))}}, "median"),
        ({"durations": {"start": data.DurationModel(np.inf)}}, "median"),
        ({"durations": {"start": data.DurationModel(2, np.inf)}}, "sigma"),
    ], ids=["seed", "train-count", "test-count", "median-nan", "median-inf", "sigma-inf"])
    def test_bad_value_rejected_at_construction(self, changes, key):
        durations = {**tiny_cfg().durations, **changes.get("durations", {})}
        with pytest.raises(ConfigError, match=repr(key)):
            tiny_cfg(**{**changes, "durations": durations})

    @pytest.mark.parametrize("changes, message", [
        ({"activities": {}}, "no activities configured"),
        ({"activities": {"make": data.ActivityGrammar(())}},
         "activity 'make' has no mandatory actions"),
        ({"activities": {"make": data.ActivityGrammar(
            ("start",), (data.OptionalAction("extra", 0.5, ()),))}},
         "optional 'extra': no insertion gaps declared"),
        ({"activities": {"make": data.ActivityGrammar(
            ("start",), (data.OptionalAction("extra", 0.5, (2,)),))}},
         "optional 'extra': gap outside the grammar"),
        ({"activities": {"make": data.ActivityGrammar(("start", "ghost"))}},
         "no duration model for class 'ghost'"),
        ({"similar_classes": (("act", "ghost"),)},
         "similar_classes names unknown class 'ghost'"),
    ], ids=["no-activities", "no-mandatory", "no-gaps", "gap-outside", "no-duration",
            "unknown-similar-class"])
    def test_grammar_check_raises(self, changes, message):
        with pytest.raises(ConfigError) as exc:
            tiny_cfg(**changes)
        assert exc.type is ConfigError and str(exc.value).startswith(message)

    @pytest.mark.parametrize("frames", [1, 2])
    def test_smoothing_keeps_a_sequence_shorter_than_the_window(self, frames):
        values = np.arange(3.0 * frames).reshape(3, frames)
        smoothed = data.synth._smooth(values)
        assert np.array_equal(smoothed, values) and smoothed is not values

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
            assert f1.values.dtype == f2.values.dtype == np.float32
            assert np.array_equal(f1.values, f2.values)

    def test_synth_corpus_is_what_the_files_hold(self, tmp_path):
        # The in-memory corpus is the one written and read back, so both
        # train to the same bits.
        cfg = gtla.longtail_benchmark_config(seed=3, train_per_activity=3, test_per_activity=1)
        train, _ = data.synth_generate(cfg)
        loaded = data.load_corpus(data.write_corpus(train, tmp_path))
        for f1, f2 in zip(loaded.features, train.features):
            assert f1.values.dtype == f2.values.dtype == np.float32
            assert np.array_equal(f1.values, f2.values)
        spec = gtla.build_group_spec(train, gtla.ByActivity())
        prior = gtla.extract_priors(train, spec)
        backbone = gtla.BackboneConfig(in_dim=train.feature_dim, hidden=8, num_layers=2,
                                       head_sizes=spec.head_sizes())
        train_cfg = gtla.TrainConfig(method="gtla", epochs=2, seed=1)
        a = gtla.train_model(train, spec, prior, backbone, train_cfg)
        b = gtla.train_model(loaded, spec, prior, backbone, train_cfg)
        assert a.history == b.history
        assert np.array_equal(a.params.values.flat, b.params.values.flat)

    def test_load_peak_memory_stays_near_the_float32_payload(self, tmp_path):
        cfg = replace(gtla.longtail_benchmark_config(seed=4, test_per_activity=1),
                      feature_dim=32)
        train, _ = data.synth_generate(cfg)
        manifest = data.write_corpus(train, tmp_path)
        payload = sum(4 * f.values.size for f in train.features)  # float32 bytes
        del train
        tracemalloc.start()
        try:
            loaded = data.load_corpus(manifest)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A float64 copy of the features alone would be twice the payload.
        assert peak < 1.5 * payload, (peak, payload)
        assert sum(f.values.nbytes for f in loaded.features) == payload

    def test_manifest_missing_key(self, tmp_path):
        (tmp_path / "manifest.json").write_text('{"version": 1}')
        with pytest.raises(FormatError, match=r"manifest\.json: manifest: missing key 'mapping'"):
            data.load_corpus(tmp_path / "manifest.json")

    def test_schema_error_is_the_config_error_kind_of_format_error(self, tmp_path):
        (tmp_path / "manifest.json").write_text('{"version": 1}')
        with pytest.raises(FormatError) as exc:
            data.load_corpus(tmp_path / "manifest.json")
        assert exc.type is ConfigError and issubclass(ConfigError, FormatError)

    @staticmethod
    def load_edited(tmp_path, edit):
        """Load a written corpus after ``edit`` of its manifest's payload."""
        train, _ = data.synth_generate(tiny_cfg(seed=9))
        manifest = data.write_corpus(train, tmp_path)
        payload = data.io.read_json(manifest)
        edit(payload)
        data.io.write_json(manifest, payload)
        return data.load_corpus(manifest)

    def load_with_entry(self, tmp_path, **changes):
        """Load a written corpus after ``changes`` to its second manifest entry."""
        return self.load_edited(tmp_path, lambda m: m["sequences"][1].update(changes))

    def test_non_string_activity_rejected(self, tmp_path):
        with pytest.raises(FormatError, match=r"manifest\.json: manifest: sequences: bad value 5 "
                                              r"for 'activity'$"):
            self.load_with_entry(tmp_path, activity=5)

    @pytest.mark.parametrize("edit, message", [
        (lambda m: m.update(feature_dim="8"), r"manifest: bad value '8' for 'feature_dim'$"),
        (lambda m: m.update(feature_dim=True), r"manifest: bad value True for 'feature_dim'$"),
        (lambda m: m.update(sequences={}), r"manifest: bad value \{\} for 'sequences'$"),
        (lambda m: m.update(labels="x"), r"manifest: unknown key\(s\) \['labels'\]$"),
        (lambda m: m["sequences"][0].update(activty="x"),
         r"manifest: sequences: unknown key\(s\) \['activty'\]$"),
        (lambda m: m["sequences"][0].pop("features"),
         r"manifest: sequences: missing key 'features'$"),
    ], ids=["dim-str", "dim-bool", "sequences-object", "unknown-key", "unknown-entry-key",
            "entry-without-features"])
    def test_manifest_is_read_by_its_schema(self, tmp_path, edit, message):
        with pytest.raises(FormatError, match=r"manifest\.json: " + message):
            self.load_edited(tmp_path, edit)

    @pytest.mark.parametrize("seq_id", ["", ".", "..", "../../escaped", "a/b", "a\\b"])
    def test_id_must_be_a_plain_file_name(self, tmp_path, seq_id):
        with pytest.raises(FormatError, match=r"manifest\.json: sequence entry .*plain file name"):
            self.load_with_entry(tmp_path, id=seq_id)

    def test_repeated_id_rejected(self, tmp_path):
        with pytest.raises(FormatError, match=r"manifest\.json: sequence entry .*repeats id "
                                              r"'train_make_000'"):
            self.load_with_entry(tmp_path, id="train_make_000")


@pytest.mark.parametrize("build, message", [
    (lambda: data.FrameSeq(np.array([], dtype=np.int64)), "labels must be a non-empty 1-D array"),
    (lambda: data.FeatureMatrix(np.zeros(3)), "features must be a 2-D (dim x frames) array"),
    (lambda: data.Corpus(data.ClassVocab(("a",)), [data.FrameSeq(np.zeros(2, np.int64))], []),
     "sequences and features must pair up"),
    (lambda: data.Corpus(data.ClassVocab(("a",)), [data.FrameSeq(np.zeros(2, np.int64), id="s")],
                         [data.FeatureMatrix(np.zeros((1, 3)))]),
     "frame count mismatch for sequence 's'"),
], ids=["empty-labels", "1-d-features", "unpaired", "frame-mismatch"])
def test_corpus_construction_check_raises(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert exc.type is ValueError and str(exc.value).startswith(message)


def test_load_corpus_frame_mismatch_rejected(tmp_path):
    train, _ = data.synth_generate(tiny_cfg(seed=13))
    manifest = data.write_corpus(train, tmp_path)
    # shorten one feature file so frames no longer match the labels
    entry = train.sequences[0]
    short = data.FeatureMatrix(train.features[0].values[:, :-1])
    data.write_features(tmp_path / "features" / f"{entry.id}.npy", short)
    with pytest.raises(FormatError, match="frames"):
        data.load_corpus(manifest)


@pytest.mark.parametrize("text, message", [
    ('{"a": 1}', "unsupported or missing version None"),
    ('{"version": 2}', "unsupported or missing version 2"),
    ('{"version": true}', "unsupported or missing version True"),
    ('{"version": 1.0}', "unsupported or missing version 1.0"),
    ('{"version": 1, "a": [1.5, NaN]}', "invalid JSON (non-finite number NaN)"),
    ('{"version": 1, "a": {"b": -Infinity}}', "invalid JSON (non-finite number -Infinity)"),
    ('{"version": 1, "a": 1e400}', "invalid JSON (non-finite number 1e400)"),
    ("[" * 100_000, "invalid JSON ("),  # RecursionError, worded per Python version
], ids=["no-version", "version-2", "version-bool", "version-float", "nan", "neg-infinity",
        "overflow", "deep-nesting"])
def test_read_json_rejects_with_one_error_naming_the_file(tmp_path, text, message):
    path = tmp_path / "in.json"
    path.write_text(text)
    with pytest.raises(FormatError) as exc:
        data.io.read_json(path)
    assert str(exc.value).startswith(f"{path}: {message}")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_write_json_refuses_what_read_json_would(tmp_path, value):
    with pytest.raises(ValueError, match="not JSON compliant"):
        data.io.write_json(tmp_path / "out.json", {"version": 1, "a": [value]})
    assert not (tmp_path / "out.json").exists()


def test_write_json_writes_the_version_read_json_checks(tmp_path):
    data.io.write_json(tmp_path / "out.json", {"a": 1})
    assert data.io.read_json(tmp_path / "out.json") == {"a": 1}  # the version checked, dropped


def test_write_json_is_indented_sorted_and_newline_terminated(tmp_path):
    path = tmp_path / "out.json"
    data.io.write_json(path, {"version": 1, "b": 1, "a": [2.5, "é"]})
    assert path.read_bytes() == (b'{\n  "a": [\n    2.5,\n    "\\u00e9"\n  ],\n  "b": 1,\n'
                                 b'  "version": 1\n}\n')
    assert data.io.read_json(path) == {"a": [2.5, "é"], "b": 1}
