"""Group structure over activities or sequence clusters.

Groups partition the training sequences; each group gets its own class list
(the classes occurring in its sequences), an auxiliary ``others`` class as
the last local id, and a size-balancing weight. Sequences can be grouped by
their activity tag or by hierarchical clustering of action-frequency
distributions under a symmetric KL distance.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field
from pathlib import Path

import numpy as np

from .data import ClassVocab, Corpus, FrameSeq
from .data.io import from_json, read_json, to_json, typed, write_json
from .errors import ConfigError, FormatError

KL_FLOOR = 1e-8


@dataclass(frozen=True)
class ByActivity:
    """Group sequences by their activity tag."""


@dataclass(frozen=True)
class ByClustering:
    """Group sequences by clustering action-frequency distributions."""

    n: int
    linkage: str = "average"


def action_frequency(seq: FrameSeq, vocab: ClassVocab) -> np.ndarray:
    """Normalized per-class frame counts of one sequence (sums to 1)."""
    counts = np.bincount(seq.labels, minlength=len(vocab)).astype(np.float64)
    return counts / seq.num_frames


def _kl(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """KL(p || q) of one distribution ``p`` against ``q`` or each row of ``q``.

    Zero entries of ``p`` contribute 0; entries of ``q`` are floored at
    ``KL_FLOOR`` so the divergence stays finite.
    """
    m = p > 0
    # compress keeps the rows C-contiguous, so each row sums in the order a
    # 1-d sum uses and a row of the matrix equals the single-pair value.
    q_m = q.compress(m, axis=-1)
    return np.sum(p[m] * np.log(p[m] / np.maximum(q_m, KL_FLOOR)), axis=-1)


def symmetric_kl(q_i: np.ndarray, q_j: np.ndarray) -> float:
    """Symmetrized KL divergence ``0.5 * (KL(q_i || q_j) + KL(q_j || q_i))``."""
    q_i = np.asarray(q_i, dtype=np.float64)
    q_j = np.asarray(q_j, dtype=np.float64)
    if q_i.shape != q_j.shape:
        raise ValueError(f"length mismatch: {q_i.shape} vs {q_j.shape}")
    return 0.5 * (float(_kl(q_i, q_j)) + float(_kl(q_j, q_i)))


_LINKAGES = ("average", "complete", "single")


def hierarchical_cluster(dist: np.ndarray, n: int, linkage: str) -> np.ndarray:
    """Agglomerative clustering on a precomputed distance matrix.

    Merges the closest pair (ties broken by lowest indices) until ``n``
    clusters remain; returns a cluster id per point, ids numbered by first
    appearance so the output is deterministic.

    Cluster distances live in one stored matrix updated after each merge by
    the Lance-Williams rule of the linkage; each cluster is indexed by its
    lowest member, so the row-major first minimum is the lowest-index pair.
    """
    if linkage not in _LINKAGES:
        raise ConfigError(f"unknown linkage {linkage!r}")
    dist = np.asarray(dist, dtype=np.float64)
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise ValueError("distance matrix must be square")
    if not np.all(np.isfinite(dist)):
        raise ValueError("distance matrix must be finite")
    if not np.allclose(dist, dist.T, rtol=0, atol=1e-12):
        raise ValueError("distance matrix must be symmetric")
    if np.any(np.abs(np.diag(dist)) > 1e-12):
        raise ValueError("distance matrix must have a zero diagonal")
    num = dist.shape[0]
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > num:
        raise ValueError(f"cannot form {n} clusters from {num} sequences")

    # The upper triangle, mirrored: exact symmetry makes the first minimum an
    # (a < b) pair. inf marks the diagonal and merged-away clusters.
    d = np.triu(dist, 1)
    d += d.T
    if linkage == "average":
        sums = d.copy()  # block sums; exact sums give exactly block.mean()
        size = np.ones(num)
    alive = np.ones(num, dtype=bool)
    owner = np.arange(num)  # lowest member of each point's cluster
    np.fill_diagonal(d, np.inf)
    for _ in range(num - n):
        a, b = divmod(int(np.argmin(d)), num)
        alive[b] = False
        owner[owner == b] = a
        if linkage == "average":
            sums[a] += sums[b]
            sums[:, a] = sums[a]
            size[a] += size[b]
            row = sums[a] / (size[a] * size)
        elif linkage == "complete":
            row = np.maximum(d[a], d[b])
        else:
            row = np.minimum(d[a], d[b])
        row[~alive] = np.inf
        row[a] = np.inf
        d[a] = d[:, a] = row
        d[b] = d[:, b] = np.inf

    return (np.cumsum(alive, dtype=np.int64) - 1)[owner]  # alive owners, numbered in order


@dataclass(frozen=True)
class GroupSpec:
    """Partition of the corpus into groups with per-group local vocabularies.

    Local class ids within a group are dense over the group's real classes,
    ordered by global id, with the auxiliary ``others`` class last. A global
    class occurring in several groups is a distinct local class in each.
    """

    n: int
    mode: str  # "activity" or "cluster"
    classes_of_group: tuple[tuple[int, ...], ...]
    group_weights: tuple[float, ...]
    group_of_activity: dict[str, int] = field(default_factory=dict)
    group_of_sequence: dict[str, int] = field(default_factory=dict)
    # Per-group mean frequency vectors: the reference group of an unseen sequence
    # in evaluation (nearest_group); inference never reads them.
    centroids: tuple[tuple[float, ...], ...] | None = None

    def num_real_classes(self, k: int) -> int:
        return len(self.classes_of_group[k])

    def others_id(self, k: int) -> int:
        return len(self.classes_of_group[k])

    def head_sizes(self) -> tuple[int, ...]:
        return tuple(len(cls) + 1 for cls in self.classes_of_group)

    def group_of(self, seq: FrameSeq) -> int:
        if self.mode == "activity":
            if seq.activity not in self.group_of_activity:
                raise ConfigError(f"unknown activity {seq.activity!r}")
            return self.group_of_activity[seq.activity]
        if seq.id not in self.group_of_sequence:
            raise ConfigError(f"sequence {seq.id!r} was not clustered; "
                              "nearest_group gives an unseen sequence's reference group")
        return self.group_of_sequence[seq.id]

    def nearest_group(self, seq: FrameSeq, vocab: ClassVocab) -> int:
        """The group evaluation scores an unseen sequence in (its group-id accuracy and FP
        taxonomy): the nearest centroid in cluster mode, else ``group_of``."""
        if self.centroids is None:
            return self.group_of(seq)
        q = action_frequency(seq, vocab)
        dists = [symmetric_kl(q, np.asarray(c)) for c in self.centroids]
        return int(np.argmin(dists))


def relabel_for_group(seq: FrameSeq | np.ndarray, spec: GroupSpec, k: int) -> np.ndarray:
    """Map global labels to group-local ids; out-of-group frames get ``others``."""
    labels = seq.labels if isinstance(seq, FrameSeq) else np.asarray(seq)
    num_global = int(labels.max()) + 1 if labels.size else 0
    table = np.full(max(num_global, max(spec.classes_of_group[k], default=-1) + 1),
                    spec.others_id(k), dtype=np.int64)
    for local, global_id in enumerate(spec.classes_of_group[k]):
        table[global_id] = local
    return table[labels]


def build_group_spec(train: Corpus, mode: ByActivity | ByClustering) -> GroupSpec:
    """Derive the group structure from a training corpus.

    One action-frequency row per sequence serves both modes: clustering reads
    the rows, and a group's classes are the nonzero columns of its rows' sum.
    """
    if not train.sequences:
        raise ConfigError("cannot group an empty training corpus")
    freqs = np.stack([action_frequency(s, train.vocab) for s in train.sequences])
    group_of_activity: dict[str, int] = {}
    group_of_sequence: dict[str, int] = {}
    centroids = None
    if isinstance(mode, ByActivity):
        activities = sorted({seq.activity for seq in train.sequences})
        group_of_activity = {a: k for k, a in enumerate(activities)}
        membership = np.array([group_of_activity[seq.activity] for seq in train.sequences])
        n = len(activities)
    elif isinstance(mode, ByClustering):
        kl = np.stack([_kl(f, freqs) for f in freqs])  # kl[i, j] = KL(q_i || q_j)
        membership = hierarchical_cluster(0.5 * (kl + kl.T), mode.n, mode.linkage)
        n = mode.n
        group_of_sequence = dict(zip((s.id for s in train.sequences), membership.tolist()))
        centroids = tuple(tuple(freqs[membership == k].mean(axis=0)) for k in range(n))
    else:
        raise ConfigError(f"unknown grouping mode {mode!r}")

    sizes = np.bincount(membership, minlength=n).tolist()
    return GroupSpec(
        n=n,
        mode="activity" if isinstance(mode, ByActivity) else "cluster",
        classes_of_group=tuple(tuple(np.flatnonzero(freqs[membership == k].sum(axis=0)).tolist())
                               for k in range(n)),
        group_weights=tuple(len(train.sequences) / (n * size) for size in sizes),
        group_of_activity=group_of_activity,
        group_of_sequence=group_of_sequence,
        centroids=centroids,
    )


def save_group_spec(path: str | Path, spec: GroupSpec, vocab: ClassVocab) -> None:
    write_json(path, {**to_json(spec), "classes_of_group": [[vocab.name_of(c) for c in cls]
                                                           for cls in spec.classes_of_group]})


def load_group_spec(path: str | Path, vocab: ClassVocab) -> GroupSpec:
    """A :func:`save_group_spec` file, typed by ``GroupSpec``'s fields; else one FormatError."""
    payload, ctx = read_json(path), f"{path}: group spec"
    names = typed(payload.pop("classes_of_group", MISSING), tuple[tuple[str, ...], ...],
                  ctx, "classes_of_group")
    for k, cls in enumerate(names):
        for i, name in enumerate(cls):
            if name not in vocab.index:
                raise FormatError(f"{path}: group spec names unknown class {name!r}")
            if name in cls[:i]:  # the head would carry a logit no frame trains
                raise FormatError(f"{path}: group spec lists class {name!r} twice in group {k}")
    spec = from_json(GroupSpec, payload, ctx, classes_of_group=tuple(
        tuple(vocab.id_of(name) for name in cls) for cls in names))
    if spec.mode not in ("activity", "cluster"):
        raise FormatError(f"{path}: group spec mode {spec.mode!r} is not 'activity' or 'cluster'")
    if not len(names) == len(spec.group_weights) == spec.n:
        raise FormatError(f"{path}: group spec has n = {spec.n} but {len(names)} class "
                          f"lists and {len(spec.group_weights)} weights")
    for k, weight in enumerate(spec.group_weights):
        if not 0.0 < weight < np.inf:  # the loss scales with it; NaN fails too
            raise FormatError(f"{path}: group {k}: weight {weight!r} is not finite and > 0")
    if spec.centroids is not None and (len(spec.centroids) != spec.n
                                       or any(len(c) != len(vocab) for c in spec.centroids)):
        raise FormatError(f"{path}: group spec needs {spec.n} centroids of {len(vocab)} values")
    ids = {*spec.group_of_activity.values(), *spec.group_of_sequence.values()}
    outside = sorted(k for k in ids if not 0 <= k < spec.n)
    if outside:
        raise FormatError(f"{path}: group spec assigns id(s) {outside} not in 0..{spec.n - 1}")
    return spec
