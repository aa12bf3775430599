"""Core sequence types, Breakfast-format file I/O and the typed JSON reader.

A corpus on disk is a mapping file (``<id> <name>`` per line), one label
file per sequence (one class name per line), one (dim, frames) float32
``.npy`` feature file per sequence, and a JSON manifest tying them together.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from functools import cache
from itertools import accumulate
from pathlib import Path
from types import UnionType
from typing import Iterator, NamedTuple, Sequence, get_args, get_origin, get_type_hints

import numpy as np

from ..errors import ConfigError, FormatError


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
    """D x T real-valued features, float32 on disk and in memory."""

    values: np.ndarray

    def __post_init__(self):
        try:
            with np.errstate(over="raise"):
                self.values = np.asarray(self.values, dtype=np.float32)
        except FloatingPointError:
            raise ValueError("features must lie within the float32 range (|x| <= 3.4e38)") from None
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


def _read_lines(path: str | Path) -> list[str]:
    """The lines of a UTF-8 text file; other bytes raise one FormatError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc})") from exc


def load_mapping(path: str | Path) -> ClassVocab:
    """Parse a mapping file of "<id> <name>" lines into a ClassVocab."""
    lines = _read_lines(path)
    entries: dict[int, str] = {}
    seen_names: set[str] = set()
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(None, 1)
        if len(parts) != 2 or not parts[0].lstrip("-").isdecimal():
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
    lines = _read_lines(path)
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


# np.save's format-1.0 header for a (D, T) <f4 array: magic, version, u16-LE length, padded dict.
_NPY_HEADER = re.compile(rb"\x93NUMPY\x01\x00(..)\{'descr': '<f4', 'fortran_order': (True|False), "
                         rb"'shape': \((\d+), (\d+)\), \} *\n", re.DOTALL)


def load_features(path: str | Path, dim: int) -> FeatureMatrix:
    """Read a (dim, frames) float32 ``.npy`` file as a read-only view of its bytes, no copy."""
    blob = Path(path).read_bytes()
    header = _NPY_HEADER.match(blob)
    if header is None or int.from_bytes(header[1], "little") != header.end() - 10:
        raise FormatError(f"{path}: not a 2-D little-endian float32 .npy file (format 1.0)")
    file_dim, num_frames = int(header[3]), int(header[4])
    if file_dim != dim:
        raise FormatError(f"{path}: feature dim is {file_dim}, expected {dim}")
    payload, expected = len(blob) - header.end(), 4 * file_dim * num_frames
    if payload < expected:
        raise FormatError(f"{path}: truncated payload ({payload} of {expected} bytes)")
    if payload > expected:
        raise FormatError(f"{path}: {payload - expected} trailing bytes")
    values = np.frombuffer(blob, dtype="<f4", offset=header.end()).reshape(
        (file_dim, num_frames), order="F" if header[2] == b"True" else "C")
    try:
        return FeatureMatrix(values)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None


def write_features(path: str | Path, feats: FeatureMatrix) -> None:
    with open(path, "wb") as fh:  # given a path, np.save would append ".npy" to it
        np.save(fh, np.asfortranarray(feats.values, dtype="<f4"))  # frame-major payload


class SegmentTable(NamedTuple):
    """Maximal constant segments of label sequences, one row each: the sequence's
    index, the label, and [start, end) in that sequence's frames."""

    seq: np.ndarray
    label: np.ndarray
    start: np.ndarray
    end: np.ndarray


def segment_table(sequences: Sequence[np.ndarray]) -> SegmentTable:
    """Run-length encode label sequences in one pass over their concatenation,
    with a break forced at each sequence start."""
    labels = np.concatenate(sequences)
    first = np.array([0, *accumulate(map(len, sequences[:-1]))])
    cut = np.concatenate(([True], labels[1:] != labels[:-1], [True]))
    cut[first] = True
    bounds = np.flatnonzero(cut)  # every segment start, then the end of the last
    seq = np.searchsorted(first, bounds[:-1], side="right") - 1
    offset = first[seq]
    return SegmentTable(seq, labels[bounds[:-1]], bounds[:-1] - offset, bounds[1:] - offset)


def segments_from_frames(seq: FrameSeq | np.ndarray) -> list[Segment]:
    """Run-length encode a label sequence into maximal constant segments."""
    table = segment_table([seq.labels if isinstance(seq, FrameSeq) else np.asarray(seq)])
    return list(map(Segment, *(column.tolist() for column in table[1:])))


def segment_labels(seq: FrameSeq | np.ndarray) -> list[int]:
    """Segment-level label list of a sequence (one entry per segment)."""
    labels = seq.labels if isinstance(seq, FrameSeq) else np.asarray(seq)
    return segment_table([labels]).label.tolist()


def write_corpus(corpus: Corpus, out_dir: str | Path) -> Path:
    """Write mapping, label and feature files plus a manifest; returns the manifest path."""
    out = Path(out_dir)
    (out / "groundTruth").mkdir(parents=True, exist_ok=True)
    (out / "features").mkdir(parents=True, exist_ok=True)
    write_mapping(out / "mapping.txt", corpus.vocab)
    entries = []
    for seq, feats in corpus:
        entry = ManifestEntry(seq.id, f"groundTruth/{seq.id}.txt", f"features/{seq.id}.npy",
                              seq.activity)
        write_label_file(out / entry.labels, seq, corpus.vocab)
        write_features(out / entry.features, feats)
        entries.append(entry)
    manifest_path = out / "manifest.json"
    write_json(manifest_path, to_json(Manifest("mapping.txt", corpus.feature_dim, tuple(entries))))
    return manifest_path


def write_json(path: str | Path, payload: dict) -> None:
    """``payload`` with ``"version": 1`` as UTF-8 JSON with indent 2, sorted keys and a
    trailing newline; NaN or inf raise ValueError."""
    text = json.dumps({**payload, "version": 1}, indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n", encoding="utf-8")


def _finite(literal: str) -> float:
    """A JSON number as a float; ``NaN``, ``Infinity`` and ``1e400`` raise ValueError."""
    if not math.isfinite(value := float(literal)):
        raise ValueError(f"non-finite number {literal}")
    return value


def parse_json(text: str | bytes):
    """``json.loads`` of finite numbers; ``NaN``, ``Infinity`` or ``1e400`` raise ValueError."""
    return json.loads(text, parse_constant=_finite, parse_float=_finite)


def read_json(path: str | Path) -> dict:
    """The keys other than ``"version": 1`` of a JSON object of finite numbers; else one
    FormatError naming the file."""
    try:
        payload = parse_json(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8, bad or too deeply nested JSON
        raise FormatError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise FormatError(f"{path}: expected a JSON object")
    version = payload.pop("version", None)
    if type(version) is not int or version != 1:
        raise FormatError(f"{path}: unsupported or missing version {version!r}")
    return payload


# File spellings of the dataclass fields that are not spelled as-is.
JSON_NAMES = {"smooth_weight": "lambda", "smooth_clip": "delta", "num_layers": "layers",
              "global_metrics": "global", "fp_counts": "fp_taxonomy"}


def to_json(obj) -> dict:
    """Dataclass ``obj`` as :func:`from_json` reads it, each field spelled by ``JSON_NAMES``."""
    return asdict(obj, dict_factory=lambda items: {JSON_NAMES.get(k, k): v for k, v in items})


# JSON value types accepted for each scalar field type; bool is never a number.
JSON_TYPES = {int: (int,), float: (int, float), str: (str,), dict: (dict,)}


def typed(value, kind, ctx: str, key: str):
    """``value`` as ``kind`` if its JSON type fits ``kind``, else ``ConfigError``.

    A dataclass is read from an object by ``from_json``, ``dict[str, X]`` from an object of
    ``X`` values, ``tuple[X, ...]`` from an array of ``X`` values and ``X | None`` from
    ``null`` or an ``X``; nested objects extend ``ctx`` with the key they sit under.
    ``MISSING`` stands for an absent key.
    """
    if not isinstance(value, bool) and isinstance(value, JSON_TYPES.get(kind, ())):
        try:
            return kind(value)
        except OverflowError:  # an integer beyond the float range
            pass
    if is_dataclass(kind) and isinstance(value, dict):
        return from_json(kind, value, f"{ctx}: {key}")
    origin, args = get_origin(kind), get_args(kind)
    if origin is dict and isinstance(value, dict):
        return {name: typed(item, args[1], f"{ctx}: {key}", name) for name, item in value.items()}
    if origin is tuple and isinstance(value, list):
        return tuple([typed(item, args[0], ctx, key) for item in value])
    if origin is UnionType:  # X | None
        return None if value is None else typed(value, args[0], ctx, key)
    raise ConfigError(f"{ctx}: missing key {key!r}" if value is MISSING
                      else f"{ctx}: bad value {value!r} for {key!r}")


@cache
def _schema(cls) -> dict:
    """Each field of dataclass ``cls`` with its type, keyed by the field's JSON spelling."""
    hints = get_type_hints(cls)
    return {JSON_NAMES.get(f.name, f.name): (f, hints[f.name]) for f in fields(cls)}


def from_json(cls, payload: dict, ctx: str, *, every_key: bool = False, **given):
    """Build dataclass ``cls`` from a JSON object. Each field not in ``given`` is
    read from its key (the ``JSON_NAMES`` spelling) as its annotated type. With
    ``every_key``, as for a recorded object, no default stands in for an absent key."""
    if not isinstance(payload, dict):
        raise ConfigError(f"{ctx}: expected a JSON object, got {payload!r}")
    schema = _schema(cls)
    keys = schema.keys() - {JSON_NAMES.get(name, name) for name in given}
    if unknown := payload.keys() - keys:
        raise ConfigError(f"{ctx}: unknown key(s) {sorted(unknown)}")
    if every_key and (missing := keys - payload.keys()):
        raise ConfigError(f"{ctx}: missing key(s) {sorted(missing)}")
    for key, (f, kind) in schema.items():  # a field without a default is required
        if key in payload or (f.name not in given and f.default is MISSING
                              and f.default_factory is MISSING):
            given[f.name] = typed(payload.get(key, MISSING), kind, ctx, key)
    try:
        return cls(**given)
    except ConfigError as exc:
        raise ConfigError(f"{ctx}: {exc}") from exc


@dataclass(frozen=True)
class ManifestEntry:
    """One sequence of a manifest: its id and its label and feature files."""

    id: str
    labels: str
    features: str
    activity: str = ""


@dataclass(frozen=True)
class Manifest:
    """A corpus manifest; its file names are relative to the manifest's directory."""

    mapping: str
    feature_dim: int
    sequences: tuple[ManifestEntry, ...]


def load_corpus(manifest_path: str | Path) -> Corpus:
    """Load a corpus described by a manifest written by :func:`write_corpus`."""
    manifest_path = Path(manifest_path)
    manifest = from_json(Manifest, read_json(manifest_path), f"{manifest_path}: manifest")
    root = manifest_path.parent
    vocab = load_mapping(root / manifest.mapping)
    sequences, features = [], []
    seen: set[str] = set()
    for entry in manifest.sequences:
        if entry.id in ("", ".", "..") or "/" in entry.id or "\\" in entry.id:
            raise FormatError(f"{manifest_path}: sequence entry {entry!r}: 'id' must be a "
                              f"plain file name")
        if entry.id in seen:
            raise FormatError(f"{manifest_path}: sequence entry {entry!r} repeats id "
                              f"{entry.id!r}")
        seen.add(entry.id)
        seq = load_label_file(root / entry.labels, vocab, activity=entry.activity,
                              seq_id=entry.id)
        feats = load_features(root / entry.features, manifest.feature_dim)
        if feats.num_frames != seq.num_frames:
            raise FormatError(f"{entry.id}: labels have {seq.num_frames} frames "
                              f"but features have {feats.num_frames}")
        sequences.append(seq)
        features.append(feats)
    return Corpus(vocab, sequences, features)
