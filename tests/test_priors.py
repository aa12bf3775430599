import json

import numpy as np
import pytest

import gtla
from gtla import priors
from gtla.errors import ConfigError, FormatError


def oracle_temporal_sets(segment_label_seqs, c):
    """Literal double-loop reference for the ordering-set extraction."""
    after, before = set(), set()
    for labels in segment_label_seqs:
        for i in range(len(labels)):
            if labels[i] != c:
                continue
            for j in range(len(labels)):
                if j > i:
                    after.add(labels[j])
                elif j < i:
                    before.add(labels[j])
    return frozenset(before - after), frozenset(after - before)


def oracle_temporal_bounds(c: int, labels: np.ndarray,
                           prior: priors.GroupPrior) -> tuple[int, int]:
    """Frame window [lo, hi] (inclusive) where class ``c`` may be adjusted.

    lo is the last frame whose label must precede c, hi the first frame
    whose label must follow c. An empty ordering set, or one whose classes
    do not occur in this sequence, opens the corresponding side fully.
    """
    labels = np.asarray(labels)
    lo, hi = 0, int(labels.size)
    precede = prior.must_precede[c]
    if precede:
        hits = np.flatnonzero(np.isin(labels, list(precede)))
        if hits.size:
            lo = int(hits[-1])
    follow = prior.must_follow[c]
    if follow:
        hits = np.flatnonzero(np.isin(labels, list(follow)))
        if hits.size:
            hi = int(hits[0])
    return lo, hi


def oracle_temporal_factor(c: int, t: int, bounds: tuple[int, int], y_t: int,
                           prior: priors.GroupPrior) -> float:
    """Adjustment multiplier for class c at frame t.

    Inside the bounds the adjustment applies in full; outside, the factor
    rescales it to match the true label's own adjustment, so the relative
    margin between c and the label is left untouched.
    """
    lo, hi = bounds
    if lo <= t <= hi:
        return 1.0
    log_p = prior.clamped_log_prior()
    return float(log_p[y_t] / log_p[c])


def random_segment_corpora(rng, count, max_seqs=8, max_classes=6, max_len=10):
    for _ in range(count):
        num_classes = int(rng.integers(2, max_classes + 1))
        corpus = []
        for _ in range(int(rng.integers(1, max_seqs + 1))):
            length = int(rng.integers(1, max_len + 1))
            labels = [int(x) for x in rng.integers(0, num_classes, size=length)]
            corpus.append(labels)
        yield corpus, num_classes


class TestExtractTemporalSets:
    def test_worked_example(self):
        # two orderings of the last two actions: only S stays before, B and C after
        corpus = [["S", "A", "B", "C"], ["S", "A", "C", "B"]]
        bf, af = gtla.extract_temporal_sets(corpus, "A")
        assert bf == {"S"}
        assert af == {"B", "C"}

    def test_first_class_has_empty_precede_set(self):
        corpus = [["A", "B", "C"], ["A", "C", "B"]]
        bf, _ = gtla.extract_temporal_sets(corpus, "A")
        assert bf == frozenset()

    def test_breakfast_style_example(self):
        corpus = [
            ["sil", "take_bowl", "pour_cereals", "pour_milk", "stir_cereals", "sil"],
            ["sil", "take_bowl", "pour_cereals", "stir_cereals", "pour_milk", "sil"],
        ]
        bf, af = gtla.extract_temporal_sets(corpus, "pour_cereals")
        assert bf == {"take_bowl"}
        assert af == {"pour_milk", "stir_cereals"}
        bf, af = gtla.extract_temporal_sets(corpus, "take_bowl")
        assert bf == frozenset()
        assert af == {"pour_cereals", "pour_milk", "stir_cereals"}

    def test_missing_class_yields_empty_sets(self):
        bf, af = gtla.extract_temporal_sets([[0, 1]], 5)
        assert bf == af == frozenset()

    def test_matches_oracle_on_random_corpora(self, rng):
        for corpus, num_classes in random_segment_corpora(rng, 300):
            for c in range(num_classes):
                assert gtla.extract_temporal_sets(corpus, c) == \
                    oracle_temporal_sets(corpus, c)

    def test_sets_disjoint_and_exclude_self(self, rng):
        for corpus, num_classes in random_segment_corpora(rng, 100):
            for c in range(num_classes):
                bf, af = gtla.extract_temporal_sets(corpus, c)
                assert not bf & af
                assert c not in bf and c not in af

    def test_monotone_shrinking_under_new_sequences(self, rng):
        # More data never adds an ordering constraint between classes that
        # were already observed around c; among those, sets only shrink.
        # (A class first seen around c in the new sequence may join a set.)
        for corpus, num_classes in random_segment_corpora(rng, 60, max_seqs=5):
            extra_len = int(rng.integers(1, 8))
            extra = [int(x) for x in rng.integers(0, num_classes, size=extra_len)]
            for c in range(num_classes):
                bf0, af0 = gtla.extract_temporal_sets(corpus, c)
                bf1, af1 = gtla.extract_temporal_sets(corpus + [extra], c)
                seen = set()
                for labels in corpus:
                    if c in labels:
                        seen.update(labels)
                assert bf1 & seen <= bf0
                assert af1 & seen <= af0
                if c in extra and set(extra) <= seen | {c}:
                    assert bf1 <= bf0 and af1 <= af0
                if c not in extra:
                    assert bf1 == bf0 and af1 == af0


def build_problem(label_seqs, num_classes, activity="a"):
    vocab = gtla.ClassVocab(tuple(f"c{i}" for i in range(num_classes)))
    sequences = [gtla.FrameSeq(np.array(labels), activity=activity, id=f"s{i}")
                 for i, labels in enumerate(label_seqs)]
    features = [gtla.FeatureMatrix(np.zeros((2, len(labels))))
                for labels in label_seqs]
    corpus = gtla.Corpus(vocab, sequences, features)
    spec = gtla.build_group_spec(corpus, gtla.ByActivity())
    return corpus, spec


class TestClassPrior:
    def test_frame_frequency(self):
        corpus, spec = build_problem([[0] * 80 + [1] * 20], 2)
        prior = gtla.class_prior(corpus.sequences, spec, 0)
        assert prior.tolist() == pytest.approx([0.8, 0.2])

    def test_single_class_group(self):
        corpus, spec = build_problem([[0, 0, 0]], 1)
        assert gtla.class_prior(corpus.sequences, spec, 0).tolist() == [1.0]

    def test_sums_to_one(self, rng):
        for _ in range(20):
            labels = rng.integers(0, 4, size=rng.integers(5, 50)).tolist()
            corpus, spec = build_problem([labels], 4)
            prior = gtla.class_prior(corpus.sequences, spec, 0)
            assert prior.sum() == pytest.approx(1.0, abs=1e-9)

    def test_empty_group_rejected(self):
        corpus, spec = build_problem([[0, 1]], 2)
        with pytest.raises(ConfigError, match="no training sequences"):
            gtla.class_prior([], spec, 0)


class TestTemporalBounds:
    def group_prior(self, prior, precede, follow):
        return priors.GroupPrior(np.asarray(prior, dtype=float),
                                 tuple(frozenset(s) for s in precede),
                                 tuple(frozenset(s) for s in follow))

    def bounds(self, c, labels, gp):
        """Class c's window from bounds_matrix, checked against the oracle."""
        lo, hi = priors.bounds_matrix(labels, gp)
        assert (lo[c], hi[c]) == oracle_temporal_bounds(c, labels, gp)
        return lo[c], hi[c]

    def test_empty_sets_open_bounds(self):
        gp = self.group_prior([0.5, 0.5], [set(), set()], [set(), set()])
        labels = np.array([0, 1, 0, 1])
        assert self.bounds(0, labels, gp) == (0, 4)

    def test_last_precede_first_follow(self):
        # classes: 0=S, 1=c, 2=B; labels S S c c B B
        gp = self.group_prior([0.4, 0.2, 0.4],
                              [set(), {0}, set()],
                              [set(), {2}, set()])
        labels = np.array([0, 0, 1, 1, 2, 2])
        assert self.bounds(1, labels, gp) == (1, 4)

    def test_absent_anchor_falls_back_open(self):
        gp = self.group_prior([0.5, 0.3, 0.2],
                              [set(), {2}, set()],
                              [set(), set(), set()])
        labels = np.array([0, 1, 0])  # class 2 never occurs
        assert self.bounds(1, labels, gp) == (0, 3)

    def test_violated_order_crosses_bounds(self):
        # follow-class occurs before precede-class: hi < lo, window empty
        gp = self.group_prior([0.4, 0.2, 0.2, 0.2],
                              [set(), {0}, set(), set()],
                              [set(), {2}, set(), set()])
        labels = np.array([2, 1, 0])
        lo, hi = self.bounds(1, labels, gp)
        assert lo == 2 and hi == 0


class TestTemporalFactor:
    def group_prior(self):
        return priors.GroupPrior(np.array([0.5, 0.25, 0.25]),
                                 (frozenset(), frozenset({0}), frozenset()),
                                 (frozenset(), frozenset(), frozenset()))

    # Class 0 must precede class 1, so on labels 0 0 1 class 1's window is
    # [1, 3]: frame 0 (label 0) lies outside it, frames 1 and 2 inside.

    def test_inside_bounds_is_one(self):
        assert oracle_temporal_factor(1, 2, (0, 5), 0, self.group_prior()) == 1.0
        matrix = priors.temporal_factor_matrix(np.array([0, 0, 1]), self.group_prior())
        assert matrix[1, 1] == matrix[1, 2] == 1.0

    def test_outside_equal_priors_is_one(self):
        gp = priors.GroupPrior(np.array([0.5, 0.5]),
                               (frozenset(), frozenset()),
                               (frozenset(), frozenset()))
        assert oracle_temporal_factor(1, 9, (0, 5), 0, gp) == pytest.approx(1.0)
        gp = priors.GroupPrior(np.array([0.5, 0.5]),
                               (frozenset(), frozenset({0})),
                               (frozenset(), frozenset()))
        matrix = priors.temporal_factor_matrix(np.array([0, 0, 1]), gp)
        assert priors.bounds_matrix(np.array([0, 0, 1]), gp)[0][1] == 1  # frame 0 outside
        assert matrix[1, 0] == pytest.approx(1.0)

    def test_outside_ratio_of_logs(self):
        # log(0.5) / log(0.25) = 0.5
        assert oracle_temporal_factor(1, 9, (0, 5), 0, self.group_prior()) == \
            pytest.approx(0.5)
        matrix = priors.temporal_factor_matrix(np.array([0, 0, 1]), self.group_prior())
        assert matrix[1, 0] == pytest.approx(0.5)

    def test_factor_one_everywhere_when_sets_empty(self, rng):
        gp = priors.GroupPrior(np.array([0.7, 0.3]),
                               (frozenset(), frozenset()),
                               (frozenset(), frozenset()))
        labels = rng.integers(0, 2, size=12)
        matrix = priors.temporal_factor_matrix(labels, gp)
        assert np.all(matrix == 1.0)

    def test_matrix_matches_scalar(self, rng):
        corpus, spec = build_problem(
            [[0, 0, 1, 2, 2, 3], [0, 1, 1, 3, 2, 3]], 4)
        prior = gtla.extract_priors(corpus, spec).groups[0]
        labels = corpus.sequences[0].labels
        matrix = priors.temporal_factor_matrix(labels, prior)
        for c in range(prior.num_classes):
            bounds = oracle_temporal_bounds(c, labels, prior)
            for t in range(labels.size):
                assert matrix[c, t] == pytest.approx(
                    oracle_temporal_factor(c, t, bounds, int(labels[t]), prior))

    def test_clamped_degenerate_prior(self):
        gp = priors.GroupPrior(np.array([1.0]), (frozenset(),), (frozenset(),))
        # p = 1 clamps below 1, so the log stays non-zero and finite
        value = oracle_temporal_factor(0, 9, (0, 5), 0, gp)
        assert np.isfinite(value)
        # class 0 (p = 1) must follow class 1 (p = 0); frame 0 lies outside
        # class 0's window, where its factor divides by log p[0]
        gp = priors.GroupPrior(np.array([1.0, 0.0]),
                               (frozenset({1}), frozenset()),
                               (frozenset(), frozenset()))
        matrix = priors.temporal_factor_matrix(np.array([1, 1, 0]), gp)
        assert np.all(np.isfinite(matrix)) and matrix[0, 0] > 1.0


class TestExtractPriors:
    def test_groups_cover_spec(self):
        train, _ = gtla.synth_generate(gtla.longtail_benchmark_config(
            seed=2, train_per_activity=4, test_per_activity=1))
        spec = gtla.build_group_spec(train, gtla.ByActivity())
        prior = gtla.extract_priors(train, spec)
        assert len(prior.groups) == spec.n
        for k, gp in enumerate(prior.groups):
            assert gp.num_classes == spec.num_real_classes(k)
            assert gp.prior.sum() == pytest.approx(1.0, abs=1e-9)
            for c in range(gp.num_classes):
                assert not gp.must_precede[c] & gp.must_follow[c]

    def test_serialization_roundtrip(self, tmp_path):
        train, _ = gtla.synth_generate(gtla.longtail_benchmark_config(
            seed=2, train_per_activity=4, test_per_activity=1))
        spec = gtla.build_group_spec(train, gtla.ByActivity())
        prior = gtla.extract_priors(train, spec)
        path = tmp_path / "priors.json"
        priors.save_temporal_prior(path, prior, spec, train.vocab)
        loaded = priors.load_temporal_prior(path, spec, train.vocab)
        for a, b in zip(loaded.groups, prior.groups):
            assert np.allclose(a.prior, b.prior)
            assert a.must_precede == b.must_precede
            assert a.must_follow == b.must_follow

    @pytest.mark.parametrize("value", [-0.25, 1.5, "nan"])
    def test_prior_outside_unit_interval_rejected(self, tmp_path, value):
        train, _ = gtla.synth_generate(gtla.longtail_benchmark_config(
            seed=2, train_per_activity=4, test_per_activity=1))
        spec = gtla.build_group_spec(train, gtla.ByActivity())
        path = tmp_path / "priors.json"
        priors.save_temporal_prior(path, gtla.extract_priors(train, spec), spec, train.vocab)
        payload = json.loads(path.read_text())
        payload["groups"][1]["prior"]["idle"] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError) as exc:
            priors.load_temporal_prior(path, spec, train.vocab)
        assert str(exc.value) == (
            f"{path}: temporal prior: groups: prior: bad value 'nan' for 'idle'"
            if isinstance(value, str) else
            f"{path}: group 1: prior {float(value)} of class 'idle' is outside [0, 1]")


def open_group_prior(num_classes):
    return priors.GroupPrior(np.full(num_classes, 1.0 / num_classes),
                             (frozenset(),) * num_classes, (frozenset(),) * num_classes)


@pytest.mark.parametrize("build, message", [
    (lambda: priors.GroupPrior(np.array([0.5, 0.5]), (frozenset({1}), frozenset()),
                               (frozenset({1}), frozenset())),
     "class 0: precede/follow sets overlap"),
    (lambda: priors.GroupPrior(np.array([0.5, 0.5]), (frozenset({0}), frozenset()),
                               (frozenset(), frozenset())),
     "class 0: ordering set contains the class itself"),
    (lambda: priors.temporal_factor_matrix(np.array([0, 2]), open_group_prior(2)),
     "sequence contains `others` frames"),
], ids=["precede-follow-overlap", "self-ordering", "others-frames"])
def test_prior_check_raises(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert exc.type is ValueError and str(exc.value).startswith(message)
