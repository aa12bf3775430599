"""Group structure over activities or sequence clusters.

Groups partition the training sequences; each group gets its own class list
(the classes occurring in its sequences), an auxiliary ``others`` class as
the last local id, and a size-balancing weight. Sequences can be grouped by
their activity tag or by hierarchical clustering of action-frequency
distributions under a symmetric KL distance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import ClassVocab, Corpus, FrameSeq
from .data.io import read_json, write_json
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


def hierarchical_cluster(dist: np.ndarray, n: int, linkage: str = "average") -> np.ndarray:
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

    return np.unique(owner, return_inverse=True)[1].astype(np.int64)


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
    # Per-group mean frequency vectors; diagnostics only, inference never
    # clusters unseen sequences.
    centroids: tuple[tuple[float, ...], ...] | None = None

    def num_real_classes(self, k: int) -> int:
        return len(self.classes_of_group[k])

    def others_id(self, k: int) -> int:
        return len(self.classes_of_group[k])

    def head_sizes(self) -> tuple[int, ...]:
        return tuple(len(cls) + 1 for cls in self.classes_of_group)

    def local_to_global(self, k: int) -> tuple[int, ...]:
        return self.classes_of_group[k]

    def global_to_local(self, k: int) -> dict[int, int]:
        return {g: i for i, g in enumerate(self.classes_of_group[k])}

    def group_of(self, seq: FrameSeq) -> int:
        if self.mode == "activity":
            if seq.activity not in self.group_of_activity:
                raise ConfigError(f"unknown activity {seq.activity!r}")
            return self.group_of_activity[seq.activity]
        if seq.id not in self.group_of_sequence:
            raise ConfigError(f"sequence {seq.id!r} was not clustered; "
                              "use nearest_group for diagnostics")
        return self.group_of_sequence[seq.id]

    def nearest_group(self, seq: FrameSeq, vocab: ClassVocab) -> int:
        """Diagnostic nearest-centroid assignment for unseen sequences."""
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


def build_group_spec(train: Corpus, mode: ByActivity | ByClustering,
                     vocab: ClassVocab | None = None) -> GroupSpec:
    """Derive the group structure from a training corpus."""
    vocab = vocab or train.vocab
    if isinstance(mode, ByActivity):
        activities = sorted({seq.activity for seq in train.sequences})
        group_of_activity = {a: k for k, a in enumerate(activities)}
        membership = [group_of_activity[seq.activity] for seq in train.sequences]
        n = len(activities)
        group_of_sequence: dict[str, int] = {}
        centroids = None
        mode_name = "activity"
    elif isinstance(mode, ByClustering):
        freqs = np.stack([action_frequency(s, vocab) for s in train.sequences])
        kl = np.stack([_kl(f, freqs) for f in freqs])  # kl[i, j] = KL(q_i || q_j)
        dist = 0.5 * (kl + kl.T)
        assignment = hierarchical_cluster(dist, mode.n, mode.linkage)
        membership = [int(a) for a in assignment]
        n = mode.n
        group_of_activity = {}
        group_of_sequence = {s.id: m for s, m in zip(train.sequences, membership)}
        centroids = tuple(tuple(freqs[assignment == k].mean(axis=0)) for k in range(n))
        mode_name = "cluster"
    else:
        raise ConfigError(f"unknown grouping mode {mode!r}")

    classes: list[set[int]] = [set() for _ in range(n)]
    sizes = [0] * n
    for seq, k in zip(train.sequences, membership):
        classes[k].update(int(c) for c in np.unique(seq.labels))
        sizes[k] += 1
    if any(size == 0 for size in sizes):
        empty = [k for k, size in enumerate(sizes) if size == 0]
        raise ConfigError(f"empty group(s): {empty}")

    total = len(train.sequences)
    weights = tuple(total / (n * size) for size in sizes)
    return GroupSpec(
        n=n,
        mode=mode_name,
        classes_of_group=tuple(tuple(sorted(c)) for c in classes),
        group_weights=weights,
        group_of_activity=group_of_activity,
        group_of_sequence=group_of_sequence,
        centroids=centroids,
    )


def group_spec_to_dict(spec: GroupSpec, vocab: ClassVocab) -> dict:
    return {
        "version": 1,
        "mode": spec.mode,
        "n": spec.n,
        "classes_of_group": [[vocab.name_of(c) for c in cls]
                             for cls in spec.classes_of_group],
        "group_weights": list(spec.group_weights),
        "group_of_activity": spec.group_of_activity,
        "group_of_sequence": spec.group_of_sequence,
        "centroids": [list(c) for c in spec.centroids] if spec.centroids else None,
    }


def group_spec_from_dict(payload: dict, vocab: ClassVocab) -> GroupSpec:
    try:
        for cls in payload["classes_of_group"]:
            for name in cls:
                if name not in vocab.index:
                    raise FormatError(f"group spec names unknown class {name!r}")
        classes = tuple(tuple(vocab.id_of(name) for name in cls)
                        for cls in payload["classes_of_group"])
        centroids = payload.get("centroids")
        spec = GroupSpec(
            n=int(payload["n"]),
            mode=payload["mode"],
            classes_of_group=classes,
            group_weights=tuple(float(w) for w in payload["group_weights"]),
            group_of_activity={a: int(k) for a, k in payload["group_of_activity"].items()},
            group_of_sequence={s: int(k) for s, k in payload["group_of_sequence"].items()},
            centroids=tuple(tuple(c) for c in centroids) if centroids else None,
        )
    except (AttributeError, LookupError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed group spec: {type(exc).__name__} {exc}") from exc
    if not len(classes) == len(spec.group_weights) == spec.n:
        raise FormatError(f"group spec has n = {spec.n} but {len(classes)} class lists "
                          f"and {len(spec.group_weights)} weights")
    if spec.centroids and (len(spec.centroids) != spec.n
                           or any(len(c) != len(vocab) for c in spec.centroids)):
        raise FormatError(f"group spec needs {spec.n} centroids of {len(vocab)} values")
    ids = {*spec.group_of_activity.values(), *spec.group_of_sequence.values()}
    outside = sorted(k for k in ids if not 0 <= k < spec.n)
    if outside:
        raise FormatError(f"group spec assigns group id(s) {outside} outside 0..{spec.n - 1}")
    return spec


def save_group_spec(path: str | Path, spec: GroupSpec, vocab: ClassVocab) -> None:
    write_json(path, group_spec_to_dict(spec, vocab))


def load_group_spec(path: str | Path, vocab: ClassVocab) -> GroupSpec:
    payload = read_json(path)
    try:
        return group_spec_from_dict(payload, vocab)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc
