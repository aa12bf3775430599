"""Core sequence types and Breakfast-format file I/O.

A corpus on disk is a mapping file (``<id> <name>`` per line), one label
file per sequence (one class name per line), one binary feature file per
sequence, and a JSON manifest tying them together.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from ..errors import FormatError

FEATURE_MAGIC = b"GTLAFEAT"


@dataclass(frozen=True)
class ClassVocab:
    """Dense 0-based mapping between action-class names and integer ids."""

    names: tuple[str, ...]
    index: dict[str, int] = field(compare=False, default_factory=dict)

    def __post_init__(self):
        if not self.index:
            object.__setattr__(self, "index", {n: i for i, n in enumerate(self.names)})

    def __len__(self) -> int:
        return len(self.names)

    def id_of(self, name: str) -> int:
        return self.index[name]

    def name_of(self, class_id: int) -> str:
        return self.names[class_id]


@dataclass
class FrameSeq:
    """Per-frame integer labels for one video, plus its activity tag."""

    labels: np.ndarray
    activity: str = ""
    id: str = ""

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.ndim != 1 or self.labels.size < 1:
            raise ValueError("labels must be a non-empty 1-D array")

    @property
    def num_frames(self) -> int:
        return int(self.labels.size)


@dataclass
class FeatureMatrix:
    """D x T real-valued features, frame-major on disk, float64 in memory."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError("features must be a 2-D (dim x frames) array")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("features contain non-finite values")

    @property
    def dim(self) -> int:
        return int(self.values.shape[0])

    @property
    def num_frames(self) -> int:
        return int(self.values.shape[1])


class Segment(NamedTuple):
    """Maximal run of one class: [start, end) in frames."""

    label: int
    start: int
    end: int


@dataclass
class Corpus:
    """A set of sequences with paired features and a shared vocabulary."""

    vocab: ClassVocab
    sequences: list[FrameSeq]
    features: list[FeatureMatrix]

    def __post_init__(self):
        if len(self.sequences) != len(self.features):
            raise ValueError("sequences and features must pair up")
        for seq, feats in zip(self.sequences, self.features):
            if seq.num_frames != feats.num_frames:
                raise ValueError(f"frame count mismatch for sequence {seq.id!r}")

    def __len__(self) -> int:
        return len(self.sequences)

    def __iter__(self) -> Iterator[tuple[FrameSeq, FeatureMatrix]]:
        return iter(zip(self.sequences, self.features))

    @property
    def feature_dim(self) -> int:
        return self.features[0].dim if self.features else 0


def load_mapping(path: str | Path) -> ClassVocab:
    """Parse a mapping file of "<id> <name>" lines into a ClassVocab."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    entries: dict[int, str] = {}
    seen_names: set[str] = set()
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(None, 1)
        if len(parts) != 2 or not parts[0].lstrip("-").isdigit():
            raise FormatError(f"{path}:{lineno}: expected '<id> <name>', got {raw!r}")
        class_id, name = int(parts[0]), parts[1].strip()
        if class_id in entries:
            raise FormatError(f"{path}:{lineno}: duplicate id {class_id}")
        if name in seen_names:
            raise FormatError(f"{path}:{lineno}: duplicate name {name!r}")
        entries[class_id] = name
        seen_names.add(name)
    if not entries:
        raise FormatError(f"{path}: empty mapping")
    if sorted(entries) != list(range(len(entries))):
        raise FormatError(f"{path}: ids must be dense 0..{len(entries) - 1}")
    return ClassVocab(tuple(entries[i] for i in range(len(entries))))


def write_mapping(path: str | Path, vocab: ClassVocab) -> None:
    text = "".join(f"{i} {name}\n" for i, name in enumerate(vocab.names))
    Path(path).write_text(text, encoding="utf-8")


def load_label_file(path: str | Path, vocab: ClassVocab,
                    activity: str = "", seq_id: str = "") -> FrameSeq:
    """Read one class name per line into a FrameSeq."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    labels = []
    for lineno, raw in enumerate(lines, 1):
        name = raw.strip()
        if name not in vocab.index:
            raise FormatError(f"{path}:{lineno}: unknown class name {name!r}")
        labels.append(vocab.index[name])
    if not labels:
        raise FormatError(f"{path}: empty label file")
    return FrameSeq(np.array(labels), activity=activity,
                    id=seq_id or Path(path).stem)


def write_label_file(path: str | Path, seq: FrameSeq, vocab: ClassVocab) -> None:
    text = "".join(vocab.name_of(int(c)) + "\n" for c in seq.labels)
    Path(path).write_text(text, encoding="utf-8")


def load_features(path: str | Path, dim: int) -> FeatureMatrix:
    """Read a binary feature file, checking magic, dimension, and length."""
    blob = Path(path).read_bytes()
    header = len(FEATURE_MAGIC) + 8
    if len(blob) < header or blob[: len(FEATURE_MAGIC)] != FEATURE_MAGIC:
        raise FormatError(f"{path}: bad magic, not a feature file")
    file_dim, num_frames = struct.unpack("<II", blob[len(FEATURE_MAGIC):header])
    if file_dim != dim:
        raise FormatError(f"{path}: feature dim is {file_dim}, expected {dim}")
    expected = header + 4 * file_dim * num_frames
    if len(blob) < expected:
        raise FormatError(f"{path}: truncated payload "
                          f"({len(blob) - header} of {expected - header} bytes)")
    if len(blob) > expected:
        raise FormatError(f"{path}: {len(blob) - expected} trailing bytes")
    flat = np.frombuffer(blob, dtype="<f4", offset=header)
    # frame-major on disk: all D values of frame 0, then frame 1, ...
    values = flat.reshape(num_frames, file_dim).T
    return FeatureMatrix(values)


def write_features(path: str | Path, feats: FeatureMatrix) -> None:
    header = FEATURE_MAGIC + struct.pack("<II", feats.dim, feats.num_frames)
    payload = feats.values.T.astype("<f4").tobytes()
    Path(path).write_bytes(header + payload)


def segments_from_frames(seq: FrameSeq | np.ndarray) -> list[Segment]:
    """Run-length encode a label sequence into maximal constant segments."""
    labels = seq.labels if isinstance(seq, FrameSeq) else np.asarray(seq)
    boundaries = np.flatnonzero(labels[1:] != labels[:-1]) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [labels.size]))
    return [Segment(int(labels[s]), int(s), int(e)) for s, e in zip(starts, ends)]


def frames_from_segments(segments: list[Segment]) -> np.ndarray:
    """Expand segments back to a per-frame label array."""
    return np.concatenate([np.full(e - s, c, dtype=np.int64) for c, s, e in segments])


def segment_labels(seq: FrameSeq | np.ndarray) -> list[int]:
    """Segment-level label list of a sequence (one entry per segment)."""
    return [s.label for s in segments_from_frames(seq)]


def write_corpus(corpus: Corpus, out_dir: str | Path) -> Path:
    """Write mapping, label and feature files plus a manifest; returns the manifest path."""
    out = Path(out_dir)
    (out / "groundTruth").mkdir(parents=True, exist_ok=True)
    (out / "features").mkdir(parents=True, exist_ok=True)
    write_mapping(out / "mapping.txt", corpus.vocab)
    entries = []
    for seq, feats in corpus:
        label_rel = f"groundTruth/{seq.id}.txt"
        feat_rel = f"features/{seq.id}.feat"
        write_label_file(out / label_rel, seq, corpus.vocab)
        write_features(out / feat_rel, feats)
        entries.append({"id": seq.id, "activity": seq.activity,
                        "labels": label_rel, "features": feat_rel})
    manifest = {
        "version": 1,
        "mapping": "mapping.txt",
        "feature_dim": corpus.feature_dim,
        "sequences": entries,
    }
    manifest_path = out / "manifest.json"
    write_json(manifest_path, manifest)
    return manifest_path


def write_json(path: str | Path, payload: dict) -> None:
    """Write ``payload`` as UTF-8 JSON: indent 2, sorted keys, trailing newline."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def read_json(path: str | Path) -> dict:
    """Parse a file holding one JSON object; anything else raises FormatError."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # bad UTF-8 or bad JSON
        raise FormatError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise FormatError(f"{path}: expected a JSON object")
    return payload


def load_corpus(manifest_path: str | Path) -> Corpus:
    """Load a corpus described by a manifest written by :func:`write_corpus`."""
    manifest_path = Path(manifest_path)
    manifest = read_json(manifest_path)
    for key in ("mapping", "feature_dim", "sequences"):
        if key not in manifest:
            raise FormatError(f"{manifest_path}: missing manifest key {key!r}")
    dim = manifest["feature_dim"]
    if not (isinstance(manifest["mapping"], str) and type(dim) is int
            and isinstance(manifest["sequences"], list)):
        raise FormatError(f"{manifest_path}: 'mapping' must be a string, 'feature_dim' "
                          f"an integer and 'sequences' an array")
    root = manifest_path.parent
    vocab = load_mapping(root / manifest["mapping"])
    sequences, features = [], []
    for entry in manifest["sequences"]:
        if not (isinstance(entry, dict)
                and all(isinstance(entry.get(key), str) for key in ("id", "labels", "features"))):
            raise FormatError(f"{manifest_path}: sequence entry {entry!r} needs string "
                              f"'id', 'labels' and 'features'")
        seq = load_label_file(root / entry["labels"], vocab,
                              activity=entry.get("activity", ""),
                              seq_id=entry["id"])
        feats = load_features(root / entry["features"], dim)
        if feats.num_frames != seq.num_frames:
            raise FormatError(f"{entry['id']}: labels have {seq.num_frames} frames "
                              f"but features have {feats.num_frames}")
        sequences.append(seq)
        features.append(feats)
    return Corpus(vocab, sequences, features)
