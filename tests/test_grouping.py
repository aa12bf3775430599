import json
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import gtla
from gtla import grouping
from gtla.data.io import to_json
from gtla.errors import ConfigError, FormatError


def oracle_cluster_distance(members_a, members_b, dist, linkage):
    block = dist[np.ix_(members_a, members_b)]
    if linkage == "average":
        return float(block.mean())
    if linkage == "complete":
        return float(block.max())
    if linkage == "single":
        return float(block.min())
    raise ConfigError(f"unknown linkage {linkage!r}")


def oracle_hierarchical_cluster(dist: np.ndarray, n: int, linkage: str = "average") -> np.ndarray:
    """Agglomerative clustering on a precomputed distance matrix.

    Merges the closest pair (ties broken by lowest indices) until ``n``
    clusters remain; returns a cluster id per point, ids numbered by first
    appearance so the output is deterministic.
    """
    dist = np.asarray(dist, dtype=np.float64)
    num = dist.shape[0]
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise ValueError("distance matrix must be square")
    if not np.allclose(dist, dist.T, atol=1e-12):
        raise ValueError("distance matrix must be symmetric")
    if np.any(np.abs(np.diag(dist)) > 1e-12):
        raise ValueError("distance matrix must have a zero diagonal")
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > num:
        raise ValueError(f"cannot form {n} clusters from {num} sequences")

    clusters: list[list[int]] = [[i] for i in range(num)]
    while len(clusters) > n:
        best = (np.inf, 0, 1)
        for a in range(len(clusters)):
            for b in range(a + 1, len(clusters)):
                d = oracle_cluster_distance(clusters[a], clusters[b], dist, linkage)
                if d < best[0]:
                    best = (d, a, b)
        _, a, b = best
        clusters[a] = clusters[a] + clusters[b]
        del clusters[b]

    assignment = np.empty(num, dtype=np.int64)
    order = sorted(range(len(clusters)), key=lambda c: min(clusters[c]))
    for new_id, c in enumerate(order):
        assignment[clusters[c]] = new_id
    return assignment


def oracle_build_group_spec(train, mode):
    """Group spec built as the set-up did before frequency rows served the class
    lists: one ``np.unique`` set per sequence and a size count per group. It reads
    the sequences in id order, as the set-up does."""
    vocab = train.vocab
    sequences = sorted(train.sequences, key=lambda s: s.id)
    if isinstance(mode, gtla.ByActivity):
        activities = sorted({seq.activity for seq in sequences})
        group_of_activity = {a: k for k, a in enumerate(activities)}
        membership = [group_of_activity[seq.activity] for seq in sequences]
        n = len(activities)
        group_of_sequence = {}
        centroids = None
        mode_name = "activity"
    else:
        freqs = np.stack([gtla.action_frequency(s, vocab) for s in sequences])
        kl = np.stack([grouping._kl(f, freqs) for f in freqs])  # kl[i, j] = KL(q_i || q_j)
        dist = 0.5 * (kl + kl.T)
        assignment = oracle_hierarchical_cluster(dist, mode.n, mode.linkage)
        membership = [int(a) for a in assignment]
        n = mode.n
        group_of_activity = {}
        group_of_sequence = {s.id: m for s, m in zip(sequences, membership)}
        centroids = tuple(tuple(freqs[assignment == k].mean(axis=0)) for k in range(n))
        mode_name = "cluster"

    classes = [set() for _ in range(n)]
    sizes = [0] * n
    for seq, k in zip(sequences, membership):
        classes[k].update(int(c) for c in np.unique(seq.labels))
        sizes[k] += 1
    if any(size == 0 for size in sizes):
        empty = [k for k, size in enumerate(sizes) if size == 0]
        raise ConfigError(f"empty group(s): {empty}")

    total = len(sequences)
    weights = tuple(total / (n * size) for size in sizes)
    return grouping.GroupSpec(
        n=n,
        mode=mode_name,
        classes_of_group=tuple(tuple(sorted(c)) for c in classes),
        group_weights=weights,
        group_of_activity=group_of_activity,
        group_of_sequence=group_of_sequence,
        centroids=centroids,
    )


def random_distances(rng, num, ties):
    """Symmetric zero-diagonal matrix: floats in [0, 1), or ties in {1, 2, 3}."""
    values = rng.integers(1, 4, size=(num, num)).astype(float) if ties else rng.random((num, num))
    upper = np.triu(values, 1)
    return upper + upper.T


def make_corpus(specs, vocab_names):
    """specs: list of (activity, label list) tuples."""
    vocab = gtla.ClassVocab(tuple(vocab_names))
    sequences, features = [], []
    for i, (activity, labels) in enumerate(specs):
        labels = np.asarray(labels)
        sequences.append(gtla.FrameSeq(labels, activity=activity, id=f"s{i}"))
        features.append(gtla.FeatureMatrix(np.zeros((2, labels.size))))
    return gtla.Corpus(vocab, sequences, features)


class TestActionFrequency:
    def test_even_split(self):
        vocab = gtla.ClassVocab(("a", "b"))
        seq = gtla.FrameSeq(np.array([0, 0, 1, 1]))
        assert gtla.action_frequency(seq, vocab).tolist() == [0.5, 0.5]

    def test_absent_class(self):
        vocab = gtla.ClassVocab(("a", "b", "c"))
        seq = gtla.FrameSeq(np.array([0, 0, 0, 1]))
        assert gtla.action_frequency(seq, vocab).tolist() == [0.75, 0.25, 0.0]

    def test_sums_to_one(self, rng):
        vocab = gtla.ClassVocab(tuple("abcde"))
        for _ in range(50):
            seq = gtla.FrameSeq(rng.integers(0, 5, size=rng.integers(1, 30)))
            assert gtla.action_frequency(seq, vocab).sum() == pytest.approx(1.0)


class TestSymmetricKL:
    def test_identical_is_zero(self):
        q = np.array([0.2, 0.3, 0.5])
        assert gtla.symmetric_kl(q, q) == 0.0

    def test_symmetry(self, rng):
        for _ in range(50):
            a = rng.random(6)
            a /= a.sum()
            b = rng.random(6)
            b /= b.sum()
            assert gtla.symmetric_kl(a, b) == pytest.approx(gtla.symmetric_kl(b, a))
            assert gtla.symmetric_kl(a, b) >= 0.0

    def test_known_value(self):
        # Independently computed: 0.5 * (KL(qi||qj) + KL(qj||qi)) = 0.13733
        value = gtla.symmetric_kl(np.array([0.5, 0.5]), np.array([0.25, 0.75]))
        assert value == pytest.approx(0.1374, abs=1e-3)

    def test_zero_handling_finite(self):
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])
        value = gtla.symmetric_kl(a, b)
        assert np.isfinite(value) and value > 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            gtla.symmetric_kl(np.array([1.0]), np.array([0.5, 0.5]))


def brute_force_two_partition(dist):
    """Best 2-partition by minimal largest within-cluster distance."""
    points = range(len(dist))
    best, best_score = None, np.inf
    for size in range(1, len(dist) // 2 + 1):
        for subset in combinations(points, size):
            left = set(subset)
            right = set(points) - left
            score = 0.0
            for side in (left, right):
                for a, b in combinations(sorted(side), 2):
                    score = max(score, dist[a][b])
            if score < best_score:
                best, best_score = (left, right), score
    return best


class TestHierarchicalCluster:
    def blob_distances(self, rng, sizes=(4, 4), gap=10.0):
        total = sum(sizes)
        dist = np.zeros((total, total))
        labels = np.repeat(np.arange(len(sizes)), sizes)
        for i in range(total):
            for j in range(i + 1, total):
                base = 0.5 if labels[i] == labels[j] else gap
                dist[i, j] = dist[j, i] = base + 0.05 * rng.random()
        return dist, labels

    def test_two_blobs_match_brute_force(self, rng):
        for _ in range(10):
            dist, _ = self.blob_distances(rng)
            assignment = gtla.hierarchical_cluster(dist, 2, "average")
            clusters = ({int(i) for i in np.flatnonzero(assignment == 0)},
                        {int(i) for i in np.flatnonzero(assignment == 1)})
            oracle = brute_force_two_partition(dist)
            assert set(map(frozenset, clusters)) == set(map(frozenset, oracle))

    @pytest.mark.parametrize("linkage", ["average", "complete", "single"])
    def test_linkages_recover_blobs(self, rng, linkage):
        dist, labels = self.blob_distances(rng, sizes=(3, 5))
        assignment = gtla.hierarchical_cluster(dist, 2, linkage)
        # same partition up to renaming
        assert len({(a, l) for a, l in zip(assignment, labels)}) == 2

    def test_n_equals_points_gives_singletons(self, rng):
        dist, _ = self.blob_distances(rng)
        assignment = gtla.hierarchical_cluster(dist, 8, "average")
        assert sorted(assignment.tolist()) == list(range(8))

    def test_n_one_gives_single_cluster(self, rng):
        dist, _ = self.blob_distances(rng)
        assert set(gtla.hierarchical_cluster(dist, 1, "average").tolist()) == {0}

    def test_too_many_clusters(self, rng):
        dist, _ = self.blob_distances(rng)
        with pytest.raises(ValueError, match="cannot form"):
            gtla.hierarchical_cluster(dist, 9, "average")

    def test_invalid_matrix(self):
        with pytest.raises(ValueError, match="symmetric"):
            gtla.hierarchical_cluster(np.array([[0.0, 1.0], [2.0, 0.0]]), 1, "average")

    def test_symmetry_is_checked_without_relative_tolerance(self):
        with pytest.raises(ValueError, match="symmetric"):
            gtla.hierarchical_cluster(np.array([[0.0, 1.0], [1.000005, 0.0]]), 1, "average")

    def test_non_finite_matrix(self):
        with pytest.raises(ValueError, match="finite"):
            gtla.hierarchical_cluster(np.array([[0.0, np.inf], [np.inf, 0.0]]), 1, "average")

    def test_unknown_linkage_rejected_before_any_merge(self, rng):
        dist, _ = self.blob_distances(rng)
        # n = #points needs no merge, so no cluster distance is ever computed
        with pytest.raises(ConfigError, match="bogus"):
            gtla.hierarchical_cluster(dist, len(dist), linkage="bogus")

    @pytest.mark.parametrize("linkage", ["average", "complete", "single"])
    @pytest.mark.parametrize("ties", [False, True], ids=["tie-free", "tie-heavy"])
    def test_matches_oracle(self, rng, linkage, ties):
        for num in range(3, 16):
            for _ in range(4):
                dist = random_distances(rng, num, ties)
                for n in range(1, num + 1):
                    expected = oracle_hierarchical_cluster(dist, n, linkage)
                    assert np.array_equal(gtla.hierarchical_cluster(dist, n, linkage),
                                          expected), (num, n, dist)


class TestBuildGroupSpec:
    def test_disjoint_activities(self):
        corpus = make_corpus([("x", [0, 0, 1]), ("y", [2, 2, 2])], "abc")
        spec = gtla.build_group_spec(corpus, gtla.ByActivity())
        assert spec.n == 2
        assert spec.classes_of_group == ((0, 1), (2,))
        assert spec.others_id(0) == 2 and spec.others_id(1) == 1
        assert spec.head_sizes() == (3, 2)

    def test_shared_class_appears_in_both_groups(self):
        # The shared class becomes a distinct local class in each group.
        corpus = make_corpus([("x", [0, 1, 0]), ("y", [2, 1, 2])], "abc")
        spec = gtla.build_group_spec(corpus, gtla.ByActivity())
        assert 1 in spec.classes_of_group[0] and 1 in spec.classes_of_group[1]
        local_x, = gtla.relabel_for_group(np.array([1]), spec, 0)
        local_y, = gtla.relabel_for_group(np.array([1]), spec, 1)
        assert spec.classes_of_group[0][local_x] == spec.classes_of_group[1][local_y] == 1

    def test_group_weights(self):
        specs = [("x", [0])] * 30 + [("y", [1])] * 10
        corpus = make_corpus(specs, "ab")
        spec = gtla.build_group_spec(corpus, gtla.ByActivity())
        assert spec.group_weights == pytest.approx((40 / (2 * 30), 40 / (2 * 10)))
        assert spec.group_weights == pytest.approx((0.667, 2.0), abs=1e-3)

    def test_every_class_in_some_group_and_groups_partition(self):
        train, _ = gtla.synth_generate(gtla.longtail_benchmark_config(
            seed=1, train_per_activity=5, test_per_activity=1))
        spec = gtla.build_group_spec(train, gtla.ByActivity())
        covered = set()
        for classes in spec.classes_of_group:
            covered.update(classes)
        assert covered == set(range(len(train.vocab)))
        groups = [spec.group_of(s) for s in train.sequences]
        assert set(groups) == set(range(spec.n))

    def test_ten_activities_give_ten_groups(self):
        specs = [(f"act{i}", [i, i, i]) for i in range(10) for _ in range(2)]
        corpus = make_corpus(specs, [f"c{i}" for i in range(10)])
        spec = gtla.build_group_spec(corpus, gtla.ByActivity())
        assert spec.n == 10
        assert all(w == 1.0 for w in spec.group_weights)

    def test_clustering_recovers_activity_partition(self):
        # Disjoint class sets per activity: clusters align with activities.
        specs = []
        rng = np.random.default_rng(2)
        for a, classes in (("x", [0, 1]), ("y", [2, 3]), ("z", [4, 5])):
            for _ in range(4):
                labels = rng.choice(classes, size=20)
                labels[0] = classes[0]  # ensure both present
                labels[1] = classes[1]
                specs.append((a, labels))
        corpus = make_corpus(specs, "abcdef")
        spec = gtla.build_group_spec(corpus, gtla.ByClustering(n=3))
        assert spec.mode == "cluster"
        by_activity = {}
        for seq in corpus.sequences:
            by_activity.setdefault(seq.activity, set()).add(spec.group_of(seq))
        assert all(len(g) == 1 for g in by_activity.values())
        assert len({g.pop() for g in by_activity.values()}) == 3
        assert spec.centroids is not None

    def test_distance_matrix_matches_pairwise_symmetric_kl(self, monkeypatch):
        # Twenty classes with up to all present, so rows sum more than 8 terms.
        rng = np.random.default_rng(5)
        specs = [("x", rng.integers(0, int(rng.integers(2, 21)), size=int(rng.integers(5, 80))))
                 for _ in range(40)]
        corpus = make_corpus(specs, [f"c{i}" for i in range(20)])
        seen = []

        def capture(dist, n, linkage="average"):
            seen.append(dist)
            return np.zeros(len(dist), dtype=np.int64)

        monkeypatch.setattr(grouping, "hierarchical_cluster", capture)
        gtla.build_group_spec(corpus, gtla.ByClustering(n=1))
        freqs = [gtla.action_frequency(s, corpus.vocab)
                 for s in sorted(corpus.sequences, key=lambda s: s.id)]  # the set-up's order
        expected = np.zeros((len(freqs), len(freqs)))
        for i in range(len(freqs)):
            for j in range(i + 1, len(freqs)):
                expected[i, j] = expected[j, i] = gtla.symmetric_kl(freqs[i], freqs[j])
        assert np.array_equal(seen[0], expected)

    def test_breakfast_scale_clustering_recovers_activities(self):
        # 1,712 sequences (Breakfast's video count) over 10 activities with
        # disjoint class sets; every sequence shows all of its activity's classes.
        rng = np.random.default_rng(11)
        specs = []
        for i in range(1712):
            activity = i % 10
            classes = np.arange(4 * activity, 4 * activity + 4)
            labels = np.concatenate([classes, rng.choice(classes, size=int(rng.integers(4, 40)))])
            specs.append((f"act{activity}", labels))
        corpus = make_corpus(specs, [f"c{i}" for i in range(40)])
        spec = gtla.build_group_spec(corpus, gtla.ByClustering(n=10))
        pairs = {(seq.activity, spec.group_of(seq)) for seq in corpus.sequences}
        assert len(pairs) == 10
        assert len({a for a, _ in pairs}) == len({k for _, k in pairs}) == 10

    @pytest.mark.parametrize("linkage", ["average", "complete", "single"])
    def test_matches_unique_oracle(self, rng, linkage):
        for _ in range(25):
            num_classes = int(rng.integers(2, 9))
            specs = []
            for _ in range(int(rng.integers(1, 13))):
                used = int(rng.integers(1, num_classes + 1))  # classes 0..used-1 may occur
                specs.append((f"act{rng.integers(0, 3)}",
                              rng.integers(0, used, size=int(rng.integers(1, 30)))))
            corpus = make_corpus(specs, [f"c{i}" for i in range(num_classes)])
            modes = [gtla.ByActivity()] + [gtla.ByClustering(n, linkage)
                                           for n in range(1, len(specs) + 1)]
            for mode in modes:
                spec = gtla.build_group_spec(corpus, mode)
                expected = oracle_build_group_spec(corpus, mode)
                assert spec == expected, (mode, specs)
                assert [type(w) for w in spec.group_weights] == \
                    [type(w) for w in expected.group_weights]

    @pytest.mark.parametrize("mode", [gtla.ByActivity(), gtla.ByClustering(n=3)],
                             ids=["activity", "cluster3"])
    def test_reversed_training_order_gives_the_same_spec_and_priors(self, mode):
        train, _ = gtla.synth_generate(gtla.longtail_benchmark_config(seed=100))
        reversed_train = gtla.Corpus(train.vocab, train.sequences[::-1], train.features[::-1])
        spec = gtla.build_group_spec(train, mode)
        again = gtla.build_group_spec(reversed_train, mode)
        assert json.dumps(to_json(again)) == json.dumps(to_json(spec))
        priors = gtla.extract_priors(train, spec).groups
        for got, want in zip(gtla.extract_priors(reversed_train, again).groups, priors,
                             strict=True):
            assert np.array_equal(got.prior, want.prior)
            assert (got.must_precede, got.must_follow) == (want.must_precede, want.must_follow)

    @pytest.mark.parametrize("mode", [gtla.ByActivity(), gtla.ByClustering(n=1)])
    def test_empty_corpus_rejected(self, mode):
        with pytest.raises(ConfigError, match="empty training corpus"):
            gtla.build_group_spec(make_corpus([], "ab"), mode)

    def test_set_up_never_imports_numpy_ma(self):
        # np.unique's first call imports numpy.ma, which costs about 14 ms.
        script = (
            "import sys, gtla\n"
            "train, _ = gtla.synth_generate(gtla.longtail_benchmark_config("
            "seed=0, train_per_activity=3, test_per_activity=1))\n"
            "for mode in (gtla.ByActivity(), gtla.ByClustering(n=3)):\n"
            "    gtla.extract_priors(train, gtla.build_group_spec(train, mode))\n"
            "print('numpy.ma' in sys.modules)\n")
        src = str(Path(gtla.__file__).resolve().parents[1])
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                env={**os.environ, "PYTHONPATH": src}, check=True)
        assert result.stdout == "False\n"

    def test_nearest_group_diagnostic(self):
        specs = [("x", [0] * 10), ("x", [0] * 9 + [1]), ("y", [2] * 10), ("y", [2] * 9 + [1])]
        corpus = make_corpus(specs, "abc")
        spec = gtla.build_group_spec(corpus, gtla.ByClustering(n=2))
        unseen = gtla.FrameSeq(np.array([0] * 8 + [1] * 2), id="new")
        k = spec.nearest_group(unseen, corpus.vocab)
        assert k == spec.group_of_sequence["s0"]
        with pytest.raises(ConfigError, match="not clustered"):
            spec.group_of(unseen)


class TestRelabel:
    def test_own_group_never_others(self):
        corpus = make_corpus([("x", [0, 1, 1]), ("y", [2, 2, 0])], "abc")
        spec = gtla.build_group_spec(corpus, gtla.ByActivity())
        for seq in corpus.sequences:
            k = spec.group_of(seq)
            local = gtla.relabel_for_group(seq, spec, k)
            assert spec.others_id(k) not in local

    def test_foreign_group_all_others(self):
        corpus = make_corpus([("x", [0, 1]), ("y", [2, 2])], "abc")
        spec = gtla.build_group_spec(corpus, gtla.ByActivity())
        local = gtla.relabel_for_group(corpus.sequences[0], spec, 1)
        assert local.tolist() == [spec.others_id(1)] * 2

    def test_shared_class_keeps_real_id_in_both(self):
        corpus = make_corpus([("x", [0, 1, 0]), ("y", [2, 1, 2])], "abc")
        spec = gtla.build_group_spec(corpus, gtla.ByActivity())
        seq = corpus.sequences[0]
        for k in range(2):
            local = gtla.relabel_for_group(seq, spec, k)
            shared_local = spec.classes_of_group[k].index(1)
            assert local[1] == shared_local != spec.others_id(k)

    def test_total_every_frame_labeled(self, rng):
        corpus = make_corpus([("x", rng.integers(0, 3, 25)),
                              ("y", rng.integers(0, 3, 25))], "abc")
        spec = gtla.build_group_spec(corpus, gtla.ByActivity())
        for seq in corpus.sequences:
            for k in range(spec.n):
                local = gtla.relabel_for_group(seq, spec, k)
                assert local.size == seq.num_frames
                assert np.all((0 <= local) & (local <= spec.others_id(k)))


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        train, _ = gtla.synth_generate(gtla.longtail_benchmark_config(
            seed=1, train_per_activity=3, test_per_activity=1))
        spec = gtla.build_group_spec(train, gtla.ByActivity())
        path = tmp_path / "spec.json"
        grouping.save_group_spec(path, spec, train.vocab)
        loaded = grouping.load_group_spec(path, train.vocab)
        assert loaded == spec


def saved_spec_payload(tmp_path):
    """A two-group spec's path, its parsed file and the vocabulary it was saved with."""
    corpus = make_corpus([("x", [0, 1]), ("y", [2, 2])], "abc")
    spec = gtla.build_group_spec(corpus, gtla.ByActivity())
    path = tmp_path / "spec.json"
    grouping.save_group_spec(path, spec, corpus.vocab)
    return path, json.loads(path.read_text()), corpus.vocab


def test_group_spec_unknown_class_name_rejected(tmp_path):
    path, payload, vocab = saved_spec_payload(tmp_path)
    payload["classes_of_group"][0][0] = "nonsense"
    path.write_text(json.dumps(payload))
    with pytest.raises(FormatError, match="unknown class"):
        grouping.load_group_spec(path, vocab)


def test_group_spec_class_listed_twice_rejected(tmp_path):
    path, payload, vocab = saved_spec_payload(tmp_path)
    payload["classes_of_group"][0].append(payload["classes_of_group"][0][0])
    path.write_text(json.dumps(payload))
    with pytest.raises(FormatError) as exc:
        grouping.load_group_spec(path, vocab)
    assert str(exc.value) == f"{path}: group spec lists class 'a' twice in group 0"


def test_group_spec_non_numeric_centroid_rejected(tmp_path):
    corpus = make_corpus([("x", [0, 1]), ("x", [0, 0]), ("y", [2, 2])], "abc")
    spec = gtla.build_group_spec(corpus, gtla.ByClustering(n=2))
    path = tmp_path / "spec.json"
    grouping.save_group_spec(path, spec, corpus.vocab)
    payload = json.loads(path.read_text())
    payload["centroids"][1][0] = "x"
    path.write_text(json.dumps(payload))
    with pytest.raises(FormatError, match=f"^{path}: group spec: bad value 'x' for 'centroids'$"):
        grouping.load_group_spec(path, corpus.vocab)


@pytest.mark.parametrize("weights, k", [([-1.0, 1e300], 0), ([1.0, 0.0], 1), ([1.0, "nan"], 1)],
                         ids=["negative", "zero", "nan-string"])
def test_group_spec_weight_must_be_finite_and_positive(tmp_path, weights, k):
    path, payload, vocab = saved_spec_payload(tmp_path)
    payload["group_weights"] = weights
    path.write_text(json.dumps(payload))
    with pytest.raises(FormatError) as exc:
        grouping.load_group_spec(path, vocab)
    assert str(exc.value) == (
        f"{path}: group spec: bad value 'nan' for 'group_weights'" if isinstance(weights[k], str)
        else f"{path}: group {k}: weight {float(weights[k])!r} is not finite and > 0")


def one_sequence_corpus():
    return gtla.Corpus(gtla.ClassVocab(("a",)),
                       [gtla.FrameSeq(np.zeros(2, np.int64), activity="x", id="s")],
                       [gtla.FeatureMatrix(np.zeros((1, 2)))])


@pytest.mark.parametrize("build, error, message", [
    (lambda: gtla.hierarchical_cluster(np.zeros((2, 3)), 1, "average"), ValueError,
     "distance matrix must be square"),
    (lambda: gtla.hierarchical_cluster(np.eye(2), 1, "average"), ValueError,
     "distance matrix must have a zero diagonal"),
    (lambda: gtla.build_group_spec(one_sequence_corpus(), "activity"), ConfigError,
     "unknown grouping mode 'activity'"),
], ids=["not-square", "non-zero-diagonal", "unknown-mode"])
def test_grouping_check_raises(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert exc.type is error and str(exc.value).startswith(message)
